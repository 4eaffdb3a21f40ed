// Package dram simulates the DRAM retention behaviour behind the
// paper's Section 6.B experiment: 8 GB DDR3 DIMMs on a commodity
// server whose main memory is split into per-channel refresh domains
// with independently controllable refresh intervals, so that critical
// kernel code and stack data can live on a reliable (nominal-refresh)
// domain while the rest of memory runs at a relaxed rate.
//
// The physical model follows the experimental DRAM retention studies
// the paper cites (Liu et al., "An experimental study of data
// retention behavior in modern DRAM devices", ISCA 2013): cell
// retention times are log-normally distributed with an extremely thin
// failure tail at second-scale intervals, retention halves roughly
// every 10°C, and a cell only leaks visibly when it stores the
// charge-decay-sensitive value (so random patterns expose about half
// the weak cells).
//
// The calibration reproduces the paper's measurements: relaxing the
// refresh interval from the nominal 64 ms up to 1.5 s introduces no
// errors, and even at 5 s (78x nominal) the cumulative bit error rate
// stays in the order of 1e-9 — within what commercial DRAMs target and
// three orders of magnitude below the 1e-6 rate classical SECDED ECC
// can absorb.
package dram

import (
	"errors"
	"fmt"
	"math"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/stats"
	"uniserver/internal/vfr"
)

// RetentionModel parameterizes the log-normal cell retention-time
// distribution at a reference temperature.
type RetentionModel struct {
	// MuLog and SigmaLog are the parameters of ln(retention seconds)
	// at the reference temperature.
	MuLog, SigmaLog float64
	// RefTempC is the temperature the parameters are calibrated at.
	RefTempC float64
	// HalvingC is the temperature increase that halves retention time
	// (~10°C for DRAM).
	HalvingC float64
}

// DefaultRetentionModel returns the model calibrated to the paper's
// measurements in an air-conditioned server room (~45°C DRAM
// temperature): P(retention < 5 s) ≈ 1.3e-9 and
// P(retention < 1.5 s) ≈ 2e-14, so even a multi-pass campaign over
// tens of gigabytes shows zero errors through 1.5 s while the
// cumulative BER at 5 s stays in the order of 1e-9.
func DefaultRetentionModel() RetentionModel {
	return RetentionModel{MuLog: 6.086, SigmaLog: 0.7524, RefTempC: 45, HalvingC: 10}
}

// tempScale returns the retention multiplier at the given temperature:
// hotter cells leak faster.
func (m RetentionModel) tempScale(tempC float64) float64 {
	return math.Pow(2, (m.RefTempC-tempC)/m.HalvingC)
}

// FailProb returns the probability that a single cell's retention time
// (at the given temperature) is below the refresh interval — i.e. the
// per-bit raw failure probability, before pattern exposure.
func (m RetentionModel) FailProb(interval time.Duration, tempC float64) float64 {
	if interval <= 0 {
		return 0
	}
	t := interval.Seconds() / m.tempScale(tempC)
	z := (math.Log(t) - m.MuLog) / m.SigmaLog
	return stats.NormalCDF(z)
}

// SampleWeakRetention samples a retention time (seconds, at reference
// temperature) conditioned on it being below the given horizon, using
// inverse-CDF sampling of the truncated tail.
func (m RetentionModel) SampleWeakRetention(horizon time.Duration, src *rng.Source) float64 {
	return m.sampleWeakTail(m.FailProb(horizon, m.RefTempC), src)
}

// sampleWeakTail is SampleWeakRetention with the horizon's tail mass
// pH already evaluated: fabrication draws tens of thousands of cells
// against the same horizon, so the CDF evaluation is hoisted out of
// the per-cell loop.
func (m RetentionModel) sampleWeakTail(pH float64, src *rng.Source) float64 {
	u := src.Float64()
	for u == 0 {
		u = src.Float64()
	}
	return math.Exp(m.MuLog + m.SigmaLog*stats.NormalQuantile(u*pH))
}

// WeakCell is one cell in the retention-failure tail of a DIMM.
type WeakCell struct {
	// Offset is the bit offset of the cell within its DIMM.
	Offset uint64
	// RetentionSec is the cell's retention time at the model's
	// reference temperature (the long state, for VRT cells).
	RetentionSec float64
	// TrueCell reports the cell's polarity: a true cell leaks toward 0
	// and only corrupts data when storing 1; an anti cell the reverse.
	TrueCell bool
	// AltRetentionSec, when non-zero, marks a variable-retention-time
	// (VRT) cell: the cell random-telegraph-switches between
	// RetentionSec and this shorter retention. VRT is why a
	// characterization pass can miss a cell that later fails in the
	// field (Liu et al. [32]), and why the StressLog derates the
	// longest observed error-free interval before publishing it.
	AltRetentionSec float64
	// LowState reports whether a VRT cell currently sits in its
	// short-retention state.
	LowState bool
}

// VRT population constants, per the retention studies the paper cites:
// a noticeable minority of weak cells exhibit VRT with a modest
// retention ratio, switching states on second-to-minute timescales.
const (
	// VRTFraction is the fraction of weak cells that are VRT.
	VRTFraction = 0.10
	// VRTRetentionRatio divides the long-state retention to obtain the
	// short-state retention.
	VRTRetentionRatio = 1.5
	// VRTToggleProb is the per-observation-window probability that a
	// VRT cell switches state.
	VRTToggleProb = 0.02
)

// DIMM is one memory module with its explicit weak-cell population.
type DIMM struct {
	// CapacityBytes is the module size (the paper uses 8 GB modules).
	CapacityBytes uint64
	// DeviceGb is the per-device density in gigabits (refresh power).
	DeviceGb int
	// Weak holds every cell whose retention falls below the simulation
	// horizon; all other cells never fail at the intervals simulated.
	Weak []WeakCell

	// vrt indexes the VRT cells within Weak, in cell order, so the
	// per-window telegraph toggle touches only them instead of scanning
	// the whole weak population. Filled by NewDIMM; a literal-built
	// DIMM (nil vrt) falls back to the full scan.
	vrt []int

	// shared marks a stamped DIMM whose Weak and vrt alias a snapshot
	// image's immutable slabs (FlatMemory.StampInto). Every mutator
	// calls unshare first, which copies the aliased slices into the
	// DIMM's own spare buffers; readers never need to. No code outside
	// this package may write Weak.
	shared    bool
	spareWeak []WeakCell
	spareVRT  []int
}

// unshare gives a stamped DIMM private copies of its weak-cell
// population and VRT index before its first write, reusing the
// buffers it owned before it was stamped. A no-op on owned DIMMs.
func (d *DIMM) unshare() {
	if !d.shared {
		return
	}
	d.Weak = append(d.spareWeak[:0], d.Weak...)
	d.vrt = append(d.spareVRT[:0], d.vrt...)
	d.spareWeak, d.spareVRT = nil, nil
	d.shared = false
}

// WeakCellHorizon is the retention horizon below which cells are
// tracked explicitly. Cells above it cannot fail at any interval the
// simulator sweeps: 12 s covers 5 s sweeps with a 10°C temperature
// rise while keeping the explicit weak-cell population compact.
const WeakCellHorizon = 12 * time.Second

// NewDIMM fabricates a DIMM: the weak-cell count is drawn from the
// binomial tail of the retention model and each weak cell gets a
// position, a retention time and a polarity.
func NewDIMM(capacityBytes uint64, deviceGb int, model RetentionModel, src *rng.Source) *DIMM {
	bits := capacityBytes * 8
	pWeak := model.FailProb(WeakCellHorizon, model.RefTempC)
	n := src.Binomial(clampInt(bits), pWeak)
	d := &DIMM{CapacityBytes: capacityBytes, DeviceGb: deviceGb, Weak: make([]WeakCell, n)}
	for i := range d.Weak {
		cell := WeakCell{
			Offset:       src.Uint64() % bits,
			RetentionSec: model.sampleWeakTail(pWeak, src),
			TrueCell:     src.Bool(),
		}
		if src.Bernoulli(VRTFraction) {
			cell.AltRetentionSec = cell.RetentionSec / VRTRetentionRatio
			cell.LowState = src.Bool()
			d.vrt = append(d.vrt, i)
		}
		d.Weak[i] = cell
	}
	return d
}

func clampInt(v uint64) int {
	if v > uint64(math.MaxInt64/2) {
		return math.MaxInt64 / 2
	}
	return int(v)
}

// Bits returns the DIMM capacity in bits.
func (d *DIMM) Bits() uint64 { return d.CapacityBytes * 8 }

// Grow appends n freshly-activated weak cells to the DIMM, drawing
// each exactly like fabrication does (position, retention from the
// weak tail, polarity, VRT membership) and keeping the private VRT
// index current. Field data says the weak-cell population is not
// static (Qureshi et al., AVATAR, DSN 2015: new weak cells keep
// appearing at a roughly constant rate over a device's life); Grow is
// the mechanism lifetime fast-forwards use to model that.
func (d *DIMM) Grow(n int, model RetentionModel, src *rng.Source) {
	if n <= 0 {
		return
	}
	d.unshare()
	bits := d.Bits()
	pWeak := model.FailProb(WeakCellHorizon, model.RefTempC)
	for i := 0; i < n; i++ {
		cell := WeakCell{
			Offset:       src.Uint64() % bits,
			RetentionSec: model.sampleWeakTail(pWeak, src),
			TrueCell:     src.Bool(),
		}
		if src.Bernoulli(VRTFraction) {
			cell.AltRetentionSec = cell.RetentionSec / VRTRetentionRatio
			cell.LowState = src.Bool()
			d.vrt = append(d.vrt, len(d.Weak))
		}
		d.Weak = append(d.Weak, cell)
	}
}

// GrowWeakCells advances the domain's weak-cell population by `days`
// of field aging at the given activation rate (expected newly-weak
// cells per DIMM per day). The count per DIMM is a binomial draw over
// the module's bits — the same distribution fabrication uses — so a
// zero rate draws nothing and leaves the source stream untouched.
func GrowWeakCells(dom *Domain, days int, cellsPerDIMMPerDay float64, model RetentionModel, src *rng.Source) {
	if days <= 0 || cellsPerDIMMPerDay <= 0 {
		return
	}
	for _, dimm := range dom.DIMMs {
		bits := dimm.Bits()
		if bits == 0 {
			continue
		}
		p := cellsPerDIMMPerDay * float64(days) / float64(bits)
		if p > 1 {
			p = 1
		}
		n := src.Binomial(clampInt(bits), p)
		dimm.Grow(n, model, src)
	}
}

// Domain is a refresh domain: a set of DIMMs (one memory channel in
// the paper's setup) sharing one refresh interval.
type Domain struct {
	Name     string
	DIMMs    []*DIMM
	Refresh  time.Duration
	Reliable bool // pinned to nominal refresh for critical data
}

// Bits returns the domain capacity in bits.
func (dom *Domain) Bits() uint64 {
	var total uint64
	for _, d := range dom.DIMMs {
		total += d.Bits()
	}
	return total
}

// SetRefresh changes the domain's refresh interval. Reliable domains
// refuse to relax beyond the nominal interval.
func (dom *Domain) SetRefresh(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("dram: non-positive refresh interval %v", interval)
	}
	if dom.Reliable && interval > vfr.NominalRefresh {
		return fmt.Errorf("dram: domain %q is reliable; refusing refresh %v > nominal %v",
			dom.Name, interval, vfr.NominalRefresh)
	}
	dom.Refresh = interval
	return nil
}

// MemorySystem is the server's main memory: a set of refresh domains
// (channels) as instrumented in the paper's framework.
type MemorySystem struct {
	Model   RetentionModel
	Domains []*Domain
	// TempC is the current DRAM temperature.
	TempC float64
}

// Config describes the memory system to build.
type Config struct {
	Channels        int
	DIMMsPerChannel int
	DIMMBytes       uint64
	DeviceGb        int
	TempC           float64
}

// DefaultConfig mirrors the paper's testbed: a commodity server with
// multiple channels of 8 GB DDR3 DIMMs in an air-conditioned room.
func DefaultConfig() Config {
	return Config{
		Channels:        4,
		DIMMsPerChannel: 2,
		DIMMBytes:       8 << 30,
		DeviceGb:        2,
		TempC:           45,
	}
}

// New builds a memory system; channel 0 is marked reliable (nominal
// refresh) to host critical kernel code and stack data, mirroring the
// paper's isolation of the kernel on a nominal-refresh domain.
func New(cfg Config, model RetentionModel, src *rng.Source) (*MemorySystem, error) {
	if cfg.Channels <= 0 || cfg.DIMMsPerChannel <= 0 || cfg.DIMMBytes == 0 {
		return nil, errors.New("dram: invalid config")
	}
	ms := &MemorySystem{Model: model, TempC: cfg.TempC}
	for ch := 0; ch < cfg.Channels; ch++ {
		dom := &Domain{
			Name:     fmt.Sprintf("channel%d", ch),
			Refresh:  vfr.NominalRefresh,
			Reliable: ch == 0,
		}
		for i := 0; i < cfg.DIMMsPerChannel; i++ {
			dom.DIMMs = append(dom.DIMMs, NewDIMM(cfg.DIMMBytes, cfg.DeviceGb, model, src.Split()))
		}
		ms.Domains = append(ms.Domains, dom)
	}
	return ms, nil
}

// ReliableDomain returns the reliable domain.
func (ms *MemorySystem) ReliableDomain() *Domain {
	for _, d := range ms.Domains {
		if d.Reliable {
			return d
		}
	}
	return nil
}

// RelaxedDomains returns every non-reliable domain.
func (ms *MemorySystem) RelaxedDomains() []*Domain {
	var out []*Domain
	for _, d := range ms.Domains {
		if !d.Reliable {
			out = append(out, d)
		}
	}
	return out
}

// TotalBits returns the capacity of the whole memory system in bits.
func (ms *MemorySystem) TotalBits() uint64 {
	var total uint64
	for _, d := range ms.Domains {
		total += d.Bits()
	}
	return total
}

// PatternTestResult reports one pattern-test pass over a domain.
type PatternTestResult struct {
	Domain    string
	Refresh   time.Duration
	BitsRead  uint64
	BitErrors int
	BER       float64
}

// effectiveRetention returns the cell's retention at the system
// temperature, honouring a VRT cell's current state.
func (ms *MemorySystem) effectiveRetention(c WeakCell) float64 {
	r := c.RetentionSec
	if c.AltRetentionSec > 0 && c.LowState {
		r = c.AltRetentionSec
	}
	return r * ms.Model.tempScale(ms.TempC)
}

// toggleVRT advances the random-telegraph state of every VRT cell in
// the domain by one observation window.
func toggleVRT(dom *Domain, src *rng.Source) {
	toggleVRTWith(dom, VRTToggleProb, src)
}

// toggleVRTWith is the single telegraph walker behind the fine
// (per-window) and coarse (fast-forward) toggles: one Bernoulli(p)
// draw per VRT cell. Fabricated DIMMs carry a VRT index, so only the
// ~10% VRT minority is visited; the draw order (cell order) is
// identical to the full-scan fallback, so the stream — and therefore
// every downstream fingerprint — is the same on both paths.
func toggleVRTWith(dom *Domain, p float64, src *rng.Source) {
	for _, dimm := range dom.DIMMs {
		dimm.unshare()
		if dimm.vrt != nil {
			for _, i := range dimm.vrt {
				if src.Bernoulli(p) {
					dimm.Weak[i].LowState = !dimm.Weak[i].LowState
				}
			}
			continue
		}
		for i := range dimm.Weak {
			if dimm.Weak[i].AltRetentionSec > 0 && src.Bernoulli(p) {
				dimm.Weak[i].LowState = !dimm.Weak[i].LowState
			}
		}
	}
}

// CoarseToggleProb returns the probability that a VRT cell sits in the
// opposite telegraph state after `windows` back-to-back observation
// windows: the closed form of `windows` independent Bernoulli(p)
// toggles, 0.5·(1−(1−2p)^n). It is what lets a lifetime fast-forward
// advance months of random-telegraph switching in one draw per cell
// instead of stepping half a million windows.
func CoarseToggleProb(windows int) float64 {
	if windows <= 0 {
		return 0
	}
	return 0.5 * (1 - math.Pow(1-2*VRTToggleProb, float64(windows)))
}

// ToggleVRTCoarse advances every VRT cell in the domain by `windows`
// observation windows' worth of telegraph switching in a single
// Bernoulli draw per cell (probability CoarseToggleProb(windows)).
// It walks the cells exactly like the fine per-window toggle — same
// walker, different probability — so the draw sequence is a pure
// function of the source stream and the fabricated population.
func ToggleVRTCoarse(dom *Domain, windows int, src *rng.Source) {
	toggleVRTWith(dom, CoarseToggleProb(windows), src)
}

// Reindex rebuilds every DIMM's private VRT index from its weak-cell
// population: the index is a pure derivation of the exported cells,
// and a DIMM built without it (a literal, or cells rewritten in place)
// would fall back to the full weak-cell scan in the per-window
// telegraph toggle.
func (ms *MemorySystem) Reindex() {
	for _, dom := range ms.Domains {
		for _, dimm := range dom.DIMMs {
			dimm.unshare()
			dimm.vrt = dimm.vrt[:0]
			for i := range dimm.Weak {
				if dimm.Weak[i].AltRetentionSec > 0 {
					dimm.vrt = append(dimm.vrt, i)
				}
			}
		}
	}
}

// RunPatternTest writes a random test pattern over the whole domain,
// waits one full refresh interval, reads it back and counts bit
// errors, replicating the paper's methodology ("using random test
// patterns and various refresh rates"). A weak cell corrupts data only
// if its retention (at temperature) is below the refresh interval and
// the random pattern stored the leak-sensitive polarity (probability
// 1/2 per cell).
func (ms *MemorySystem) RunPatternTest(dom *Domain, src *rng.Source) PatternTestResult {
	res := PatternTestResult{Domain: dom.Name, Refresh: dom.Refresh, BitsRead: dom.Bits()}
	toggleVRT(dom, src)
	interval := dom.Refresh.Seconds()
	// The temperature scale is per-system state, not per-cell: hoisting
	// it replaces a math.Pow per cell with one multiply, computing the
	// exact same product effectiveRetention would.
	scale := ms.Model.tempScale(ms.TempC)
	for _, dimm := range dom.DIMMs {
		for i := range dimm.Weak {
			cell := &dimm.Weak[i]
			r := cell.RetentionSec
			if cell.AltRetentionSec > 0 && cell.LowState {
				r = cell.AltRetentionSec
			}
			if r*scale < interval && src.Bool() {
				res.BitErrors++
			}
		}
	}
	if res.BitsRead > 0 {
		res.BER = float64(res.BitErrors) / float64(res.BitsRead)
	}
	return res
}

// SweepPoint is one row of the refresh-rate characterization sweep.
type SweepPoint struct {
	Refresh       time.Duration
	BitErrors     int
	CumulativeBER float64
	SECDEDSafe    bool // below the 1e-6 rate classical SECDED handles
}

// CharacterizeRefresh sweeps the given refresh intervals on every
// relaxed domain and reports cumulative errors and BER per interval —
// the Section 6.B experiment. Passes-per-interval emulates repeated
// testing (the paper reports cumulative BER over its campaign).
func (ms *MemorySystem) CharacterizeRefresh(intervals []time.Duration, passes int, src *rng.Source) ([]SweepPoint, error) {
	if passes <= 0 {
		return nil, errors.New("dram: passes must be positive")
	}
	points := make([]SweepPoint, 0, len(intervals))
	for _, interval := range intervals {
		totalErrors := 0
		var totalBits uint64
		for _, dom := range ms.RelaxedDomains() {
			if err := dom.SetRefresh(interval); err != nil {
				return nil, err
			}
			for p := 0; p < passes; p++ {
				r := ms.RunPatternTest(dom, src)
				totalErrors += r.BitErrors
				totalBits += r.BitsRead
			}
		}
		ber := 0.0
		if totalBits > 0 {
			ber = float64(totalErrors) / float64(totalBits)
		}
		points = append(points, SweepPoint{
			Refresh:       interval,
			BitErrors:     totalErrors,
			CumulativeBER: ber,
			SECDEDSafe:    ber <= 1e-6,
		})
	}
	// Restore nominal refresh after characterization.
	for _, dom := range ms.RelaxedDomains() {
		if err := dom.SetRefresh(vfr.NominalRefresh); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// MaxSafeRefresh returns the longest swept interval with zero observed
// errors — the margin the StressLog would publish for the DRAM domain
// (before applying its cushion).
func MaxSafeRefresh(points []SweepPoint) (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, p := range points {
		if p.BitErrors == 0 && p.Refresh > best {
			best = p.Refresh
			found = true
		}
	}
	return best, found
}
