// Package silicon models the manufactured-hardware variability at the
// root of the UniServer thesis: every fabricated die, and every core
// within a die, lands at a different point of the process distribution
// and therefore has intrinsically different voltage/frequency
// capabilities (Figure 1 of the paper).
//
// The model follows the standard decomposition of process variation
// into die-to-die (D2D) and within-die (WID) components, both normal,
// applied to each core's critical voltage. Frequency capability uses
// the alpha-power law in its common linearized form: a core sustains
// frequency f at supply voltage V when V >= Vcrit(f), with Vcrit
// increasing linearly in f. Voltage droops are modeled as transient
// supply dips whose magnitude the manufacturer's guardband (Table 1)
// must cover.
package silicon

import (
	"fmt"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
)

// Process captures a fabrication process corner and its variability.
type Process struct {
	// Name of the process, e.g. "28nm-LP".
	Name string
	// VthMV is the nominal threshold-ish intercept of the linearized
	// Vcrit(f) relation, in millivolts.
	VthMV float64
	// SlopeMVPerGHz is the linear coefficient of Vcrit(f): how many
	// additional millivolts one more GHz of clock demands.
	SlopeMVPerGHz float64
	// D2DSigmaMV is the die-to-die standard deviation of the critical
	// voltage, in millivolts.
	D2DSigmaMV float64
	// WIDSigmaMV is the within-die (core-to-core) standard deviation
	// of the critical voltage, in millivolts.
	WIDSigmaMV float64
	// DroopPctTypical and DroopPctWorst bound the di/dt supply-droop
	// magnitude as a percentage of nominal voltage; workloads sit
	// between the two depending on their current-step behaviour.
	DroopPctTypical float64
	DroopPctWorst   float64
}

// Process28nm returns parameters representative of the 28 nm planar
// node discussed in the paper (">30% timing and voltage margins in
// 28nm" per Whatmough et al.).
func Process28nm() Process {
	return Process{
		Name:            "28nm-LP",
		VthMV:           420,
		SlopeMVPerGHz:   120,
		D2DSigmaMV:      18,
		WIDSigmaMV:      7,
		DroopPctTypical: 8,
		DroopPctWorst:   20,
	}
}

// Core is one fabricated core: its intrinsic critical-voltage offset
// from the die mean, fixed at fabrication time.
type Core struct {
	Index int
	// VcritOffsetMV is the core's deviation from the die-mean critical
	// voltage (WID variation), in millivolts.
	VcritOffsetMV float64
}

// Chip is one fabricated die.
type Chip struct {
	Proc Process
	// Model is a human-readable part name, e.g. "i5-4200U".
	Model string
	// Nominal is the manufacturer-rated operating point (with the full
	// conservative guardband applied).
	Nominal vfr.Point
	// D2DOffsetMV is the die's deviation from the process-mean
	// critical voltage.
	D2DOffsetMV float64
	// Cores lists the fabricated cores.
	Cores []Core
	// MarginSpreadScale scales how strongly workload-dependent stress
	// widens the crash-point spread on this part; high-end desktop
	// parts with deep power delivery show wider spreads (Table 2's
	// i7-3970X row) than low-power mobile parts.
	MarginSpreadScale float64
	// AgeShiftMV is the accumulated critical-voltage drift from
	// transistor aging (see aging.go); it raises every core's Vcrit.
	AgeShiftMV float64
	// StressedHours is the accumulated stress-time the aging model
	// integrates; AgeShiftMV is its power-law image.
	StressedHours float64
}

// Fabricate manufactures a chip with the given core count on the
// process, drawing its variation from src. Model and nominal describe
// the rated part.
func Fabricate(proc Process, model string, cores int, nominal vfr.Point, spreadScale float64, src *rng.Source) *Chip {
	if cores <= 0 {
		panic("silicon: Fabricate with no cores")
	}
	c := &Chip{
		Proc:              proc,
		Model:             model,
		Nominal:           nominal,
		D2DOffsetMV:       src.Normal(0, proc.D2DSigmaMV),
		Cores:             make([]Core, cores),
		MarginSpreadScale: spreadScale,
	}
	for i := range c.Cores {
		c.Cores[i] = Core{
			Index: i,
			// WID variation is one-sided-ish in practice (a die has a
			// worst core); we keep it normal and let order statistics
			// produce the spread.
			VcritOffsetMV: src.Normal(0, proc.WIDSigmaMV),
		}
	}
	return c
}

// CopyInto overwrites dst with a deep copy of c, reusing dst's core
// slice storage when it has capacity: afterwards dst is an independent
// specimen whose cores, accumulated aging drift and stress history
// evolve separately from c's. Snapshot images and the nodes stamped
// from them rely on it.
func (c *Chip) CopyInto(dst *Chip) {
	cores := dst.Cores
	*dst = *c
	dst.Cores = append(cores[:0], c.Cores...)
}

// VcritMV returns the critical (minimum sustaining) voltage in
// millivolts for the given core at the given frequency, excluding any
// workload-induced droop. Below this voltage the core mis-times and
// the system crashes.
func (c *Chip) VcritMV(coreIdx int, freqMHz int) float64 {
	core := c.Cores[coreIdx]
	ghz := float64(freqMHz) / 1000
	return c.Proc.VthMV + c.Proc.SlopeMVPerGHz*ghz + c.D2DOffsetMV + core.VcritOffsetMV + c.AgeShiftMV
}

// FMaxMHz returns the maximum frequency the given core sustains at the
// given supply voltage (inverse of VcritMV), or 0 when the voltage is
// below the intercept.
func (c *Chip) FMaxMHz(coreIdx int, voltageMV int) int {
	core := c.Cores[coreIdx]
	v := float64(voltageMV) - c.Proc.VthMV - c.D2DOffsetMV - core.VcritOffsetMV - c.AgeShiftMV
	if v <= 0 {
		return 0
	}
	return int(v / c.Proc.SlopeMVPerGHz * 1000)
}

// WorstCore returns the index of the core with the highest critical
// voltage — the core that constrains a worst-case-binned part.
func (c *Chip) WorstCore() int {
	worst := 0
	for i := 1; i < len(c.Cores); i++ {
		if c.Cores[i].VcritOffsetMV > c.Cores[worst].VcritOffsetMV {
			worst = i
		}
	}
	return worst
}

// GuardbandedVminMV returns the voltage a conservative manufacturer
// rates the part at for the given frequency: the process-mean critical
// voltage plus the full Table 1 guardband, independent of this
// specific die's capabilities. The difference between this and a
// die's true VcritMV is exactly the margin UniServer recovers.
func (c *Chip) GuardbandedVminMV(freqMHz int) float64 {
	ghz := float64(freqMHz) / 1000
	base := c.Proc.VthMV + c.Proc.SlopeMVPerGHz*ghz
	guard := vfr.TotalGuardbandPct(vfr.Table1Guardbands()) / 100
	return base * (1 + guard)
}

// Bin is a speed grade assigned by product binning (Figure 1).
type Bin struct {
	// GradeMHz is the rated frequency of the bin.
	GradeMHz int
	// Label is a human-readable bin name.
	Label string
}

// BinLadder returns the standard descending speed-grade ladder used to
// bin a population of parts, from topMHz down in stepMHz decrements.
func BinLadder(topMHz, stepMHz, grades int) []Bin {
	if grades <= 0 || stepMHz <= 0 {
		panic("silicon: invalid bin ladder")
	}
	ladder := make([]Bin, grades)
	for i := range ladder {
		mhz := topMHz - i*stepMHz
		ladder[i] = Bin{GradeMHz: mhz, Label: fmt.Sprintf("grade-%dMHz", mhz)}
	}
	return ladder
}

// AssignBin returns the highest bin whose frequency every core of the
// chip sustains at the given supply voltage, or ok=false when the part
// fails even the lowest grade (a discard, reducing yield — the paper's
// Section 5.A argument).
func AssignBin(c *Chip, ladder []Bin, voltageMV int) (Bin, bool) {
	worst := c.FMaxMHz(c.WorstCore(), voltageMV)
	for _, b := range ladder {
		if worst >= b.GradeMHz {
			return b, true
		}
	}
	return Bin{}, false
}

// PopulationStats summarizes a fabricated population for Figure 1.
type PopulationStats struct {
	Total     int
	Discarded int
	PerBin    map[int]int // keyed by GradeMHz
}

// BinPopulation fabricates n chips and bins them at the given voltage,
// returning the bin histogram that reproduces Figure 1's "each chip is
// intrinsically different" distribution.
func BinPopulation(proc Process, n, coresPerChip int, nominal vfr.Point, ladder []Bin, src *rng.Source) PopulationStats {
	stats := PopulationStats{Total: n, PerBin: make(map[int]int)}
	for i := 0; i < n; i++ {
		chip := Fabricate(proc, fmt.Sprintf("die-%d", i), coresPerChip, nominal, 1, src)
		b, ok := AssignBin(chip, ladder, nominal.VoltageMV)
		if !ok {
			stats.Discarded++
			continue
		}
		stats.PerBin[b.GradeMHz]++
	}
	return stats
}

// Yield returns the fraction of the population that binned successfully.
func (p PopulationStats) Yield() float64 {
	if p.Total == 0 {
		return 0
	}
	return 1 - float64(p.Discarded)/float64(p.Total)
}
