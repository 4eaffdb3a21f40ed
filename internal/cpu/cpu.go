// Package cpu simulates the undervolting characterization the paper
// performs on two x86-64 parts (Section 6.A, Table 2): sweeping the
// supply voltage below nominal per core and per benchmark until the
// system crashes, while counting the cache ECC corrections that appear
// shortly before the crash point.
//
// The simulator reproduces the paper's three observables:
//
//  1. crash points below nominal VID (−10%..−11.2% for the i5-4200U,
//     −8.4%..−15.4% for the i7-3970X),
//  2. core-to-core variation of the crash points (0%..2.7% and
//     3.7%..8% respectively), and
//  3. cache ECC error counts before the crash (1..17, exposed only by
//     the low-end part), with errors first appearing on average ~15 mV
//     above the crash voltage.
//
// The mechanism: a core crashes at voltage Vcrit(core, f) + droop(w),
// where Vcrit carries die-to-die and within-die process variation
// (package silicon) and droop(w) is the workload-dependent supply
// noise. SRAM cells in the cache begin to fail slightly above the
// logic crash point, producing correctable ECC events at a rate that
// grows as the voltage approaches the crash point.
package cpu

import (
	"fmt"

	"uniserver/internal/rng"
	"uniserver/internal/silicon"
	"uniserver/internal/vfr"
)

// Benchmark describes the undervolting-relevant behaviour of one
// workload: how violently it excites the power-delivery network, how
// hard it hits the caches, and its average switching activity.
type Benchmark struct {
	Name string
	// DroopIntensity in [0,1] positions the workload between the
	// part's minimum and maximum di/dt droop.
	DroopIntensity float64
	// CacheStress in [0,1] scales the rate of correctable cache ECC
	// events near Vmin.
	CacheStress float64
	// Activity in [0,1] is the dynamic-power activity factor.
	Activity float64
}

// SPECSuite returns the eight SPEC CPU2006 benchmarks used in the
// paper ("8 benchmarks with diverse behaviors"). The profile values
// are behavioural stand-ins chosen to span the diversity the paper
// exploits: memory-bound codes (mcf, milc) excite large current steps,
// cache-resident integer codes (bzip2, gobmk) stress the SRAM arrays,
// and compute-dense FP codes (namd, zeusmp) run hot but smooth.
func SPECSuite() []Benchmark {
	return []Benchmark{
		{Name: "bzip2", DroopIntensity: 0.35, CacheStress: 0.80, Activity: 0.62},
		{Name: "mcf", DroopIntensity: 0.95, CacheStress: 0.55, Activity: 0.48},
		{Name: "namd", DroopIntensity: 0.10, CacheStress: 0.25, Activity: 0.85},
		{Name: "milc", DroopIntensity: 0.85, CacheStress: 0.50, Activity: 0.55},
		{Name: "hmmer", DroopIntensity: 0.25, CacheStress: 0.65, Activity: 0.80},
		{Name: "h264ref", DroopIntensity: 0.45, CacheStress: 0.70, Activity: 0.75},
		{Name: "gobmk", DroopIntensity: 0.55, CacheStress: 0.85, Activity: 0.58},
		{Name: "zeusmp", DroopIntensity: 0.05, CacheStress: 0.30, Activity: 0.70},
	}
}

// BenchmarkByName returns the suite benchmark with the given name.
func BenchmarkByName(name string) (Benchmark, error) {
	for _, b := range SPECSuite() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("cpu: unknown benchmark %q", name)
}

// PartSpec describes a commercial processor model as characterized in
// the paper, including the behavioural constants that calibrate the
// simulator to the measured Table 2 rows.
type PartSpec struct {
	Model   string
	Nominal vfr.Point
	Cores   int
	Proc    silicon.Process
	// DroopMinMV/DroopMaxMV bound the workload-induced supply droop.
	DroopMinMV, DroopMaxMV float64
	// ExposesCacheECC reports whether the part's MCA banks surface
	// correctable cache ECC events to software (the paper observed
	// them only on the low-end part).
	ExposesCacheECC bool
	// ECCOnsetMeanMV is the mean voltage gap above the crash point at
	// which cache ECC errors begin to appear (paper: ~15 mV).
	ECCOnsetMeanMV float64
	// ECCOnsetSigmaMV is the run-to-run spread of the onset gap.
	ECCOnsetSigmaMV float64
	// RunNoiseMV is the run-to-run measurement noise of the crash
	// voltage.
	RunNoiseMV float64
	// VIDStepMV is the voltage-offset granularity of the sweep.
	VIDStepMV int
}

// PartI5_4200U returns the low-end mobile part of Table 2
// (2 cores, 0.844 V nominal, 2.6 GHz).
func PartI5_4200U() PartSpec {
	return PartSpec{
		Model:   "i5-4200U",
		Nominal: vfr.Point{VoltageMV: 844, FreqMHz: 2600},
		Cores:   2,
		Proc: silicon.Process{
			Name:            "22nm-mobile",
			VthMV:           420,
			SlopeMVPerGHz:   125.2, // Vcrit(2.6GHz) ≈ 745.5 mV
			D2DSigmaMV:      2,
			WIDSigmaMV:      0.5,
			DroopPctTypical: 0.5,
			DroopPctWorst:   1.7,
		},
		DroopMinMV:      4,
		DroopMaxMV:      14,
		ExposesCacheECC: true,
		ECCOnsetMeanMV:  15,
		ECCOnsetSigmaMV: 3,
		RunNoiseMV:      0.4,
		VIDStepMV:       2,
	}
}

// PartI7_3970X returns the high-end desktop part of Table 2
// (6 cores, 1.365 V nominal, 4.0 GHz).
func PartI7_3970X() PartSpec {
	return PartSpec{
		Model:   "i7-3970X",
		Nominal: vfr.Point{VoltageMV: 1365, FreqMHz: 4000},
		Cores:   6,
		Proc: silicon.Process{
			Name:            "32nm-desktop",
			VthMV:           500,
			SlopeMVPerGHz:   160, // Vcrit(4.0GHz) ≈ 1140 mV
			D2DSigmaMV:      4,
			WIDSigmaMV:      3.2,
			DroopPctTypical: 1.1,
			DroopPctWorst:   8.0,
		},
		DroopMinMV:      15,
		DroopMaxMV:      110,
		ExposesCacheECC: false,
		ECCOnsetMeanMV:  15,
		ECCOnsetSigmaMV: 3,
		RunNoiseMV:      2.0,
		VIDStepMV:       2,
	}
}

// Machine is one physical specimen of a part: a fabricated die plus
// the measurement apparatus state.
type Machine struct {
	Spec PartSpec
	Chip *silicon.Chip
	src  *rng.Source
}

// NewMachine fabricates one specimen of the part. Machines built from
// the same spec and seed are identical.
func NewMachine(spec PartSpec, seed uint64) *Machine {
	src := rng.New(seed).SplitLabeled(spec.Model)
	chip := silicon.Fabricate(spec.Proc, spec.Model, spec.Cores, spec.Nominal, 1, src)
	return &Machine{Spec: spec, Chip: chip, src: src}
}

// Image is a machine's snapshot form: a copy of the fabricated (and
// possibly aged) die and the measurement-stream position. The part is
// not part of it; the stamp takes it from its caller.
type Image struct {
	Chip   silicon.Chip
	Stream uint64
}

// Image captures the machine. The image shares no storage with m, so m
// may keep running.
func (m *Machine) Image() Image {
	img := Image{Stream: m.src.State()}
	m.Chip.CopyInto(&img.Chip)
	return img
}

// StampFrom overwrites m with the image of a machine of the given
// part, reusing m's chip and stream storage; a zero Machine is a valid
// destination. Afterwards m evolves independently of the image and
// replays exactly the sweep sequence the imaged machine would have.
func (m *Machine) StampFrom(img *Image, spec PartSpec) {
	m.Spec = spec
	if m.Chip == nil {
		m.Chip = &silicon.Chip{}
	}
	img.Chip.CopyInto(m.Chip)
	if m.src == nil {
		m.src = &rng.Source{}
	}
	*m.src = *rng.FromState(img.Stream)
}

// StreamState returns the measurement stream's position.
func (m *Machine) StreamState() uint64 { return m.src.State() }

// ReseedStream repositions the measurement stream at the given state
// word — the archetype-clone hook: machines stamped from one
// characterized specimen share the fabricated die (same margins, same
// aging) but must draw independent measurement noise from here on.
// The stream is replaced in place, so every holder of the machine
// pointer (the StressLog daemon included) sees the repositioned
// stream.
func (m *Machine) ReseedStream(state uint64) { m.src = rng.FromState(state) }

// droopMV samples the workload-induced droop for one run.
func (m *Machine) droopMV(b Benchmark) float64 {
	base := m.Spec.DroopMinMV + b.DroopIntensity*(m.Spec.DroopMaxMV-m.Spec.DroopMinMV)
	d := base + m.src.Normal(0, m.Spec.RunNoiseMV)
	if d < 0 {
		d = 0
	}
	return d
}

// crashVoltageMV returns the true (continuous) crash voltage for one
// run of benchmark b on the given core: the supply level below which
// the run crashes.
func (m *Machine) crashVoltageMV(core int, b Benchmark) float64 {
	return m.Chip.VcritMV(core, m.Spec.Nominal.FreqMHz) + m.droopMV(b)
}

// RunOutcome is the result of executing a benchmark run at a fixed
// voltage offset.
type RunOutcome struct {
	Crashed   bool
	ECCErrors int // correctable cache ECC events observed (0 if hidden)
}

// RunAt executes one run of b on the core at the given supply voltage
// and reports whether the system crashed and how many correctable
// cache ECC events were observed.
func (m *Machine) RunAt(core int, b Benchmark, voltageMV int) RunOutcome {
	crash := m.crashVoltageMV(core, b)
	if float64(voltageMV) < crash {
		return RunOutcome{Crashed: true}
	}
	return RunOutcome{ECCErrors: m.eccEventsAt(b, float64(voltageMV), crash)}
}

// eccEventsAt samples the correctable cache ECC events for a run at
// supply v given the run's crash voltage. Events appear only within
// the onset window above the crash point, at a rate that rises
// linearly toward the crash voltage and scales with cache stress.
func (m *Machine) eccEventsAt(b Benchmark, v, crash float64) int {
	if !m.Spec.ExposesCacheECC {
		return 0
	}
	gap := v - crash
	// The onset is floored at 2, so below a gap of 2 a sample at or
	// under the gap still yields an onset above it.
	onset, above := m.src.NormalAbove(m.Spec.ECCOnsetMeanMV, m.Spec.ECCOnsetSigmaMV, gap)
	if !above && gap >= 2 {
		return 0
	}
	onset = max(onset, 2)
	// Rate grows from ~0 at the onset boundary to its maximum just
	// above the crash point.
	closeness := 1 - gap/onset
	lambda := (0.5 + 3.5*b.CacheStress) * closeness
	return m.src.Poisson(lambda)
}

// SweepResult records one undervolt sweep of one benchmark run on one
// core: descending from nominal in VID steps until the crash.
type SweepResult struct {
	Core           int
	Bench          string
	Run            int
	CrashVoltageMV int     // first (highest) swept voltage that crashed
	CrashOffsetPct float64 // |offset| below nominal, positive percent
	ECCErrors      int     // total correctable events seen before crash
	ECCOnsetMV     int     // voltage of first ECC event (0 = none seen)
}

// UndervoltSweep performs `runs` consecutive descending voltage sweeps
// of benchmark b on the given core, mirroring the paper's methodology
// of 3 consecutive runs per benchmark.
func (m *Machine) UndervoltSweep(core int, b Benchmark, runs int) []SweepResult {
	results := make([]SweepResult, 0, runs)
	for r := 0; r < runs; r++ {
		crash := m.crashVoltageMV(core, b)
		res := SweepResult{Core: core, Bench: b.Name, Run: r}
		for v := m.Spec.Nominal.VoltageMV; v > 0; v -= m.Spec.VIDStepMV {
			if float64(v) < crash {
				res.CrashVoltageMV = v
				res.CrashOffsetPct = -vfr.Point{VoltageMV: v, FreqMHz: m.Spec.Nominal.FreqMHz}.
					VoltageOffsetPct(m.Spec.Nominal.VoltageMV)
				break
			}
			if n := m.eccEventsAt(b, float64(v), crash); n > 0 {
				if res.ECCOnsetMV == 0 {
					res.ECCOnsetMV = v
				}
				res.ECCErrors += n
			}
		}
		results = append(results, res)
	}
	return results
}

// WorstCrash returns the sweep result with the highest crash voltage
// (the least undervolt headroom) — the conservative estimate a
// characterization campaign must publish.
func WorstCrash(rs []SweepResult) SweepResult {
	if len(rs) == 0 {
		panic("cpu: WorstCrash of empty results")
	}
	worst := rs[0]
	for _, r := range rs[1:] {
		if r.CrashVoltageMV > worst.CrashVoltageMV {
			worst = r
		}
	}
	return worst
}
