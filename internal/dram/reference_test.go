package dram

import (
	"fmt"
	"math"
	"testing"
	"time"

	"uniserver/internal/rng"
)

// The sequential kernels the candidate index and the lazy telegraph
// replaced, kept as the reference the production kernels must match
// draw for draw: one telegraph flag per cell, one float Bernoulli draw
// per VRT cell per toggle, and a scan of every weak cell per pattern
// test.

// refDIMM is a DIMM under the reference kernels.
type refDIMM struct {
	bits uint64
	weak []WeakCell
	low  []bool // by cell
	vrt  []int
}

// refSystem is a memory system under the reference kernels.
type refSystem struct {
	model   RetentionModel
	tempC   float64
	domains [][]*refDIMM
}

// refBernoulli is Bernoulli as the float comparison it was.
func refBernoulli(src *rng.Source, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return src.Float64() < p
}

// grow appends n cells drawn as fabrication draws them.
func (d *refDIMM) grow(n int, model RetentionModel, src *rng.Source) {
	pWeak := model.FailProb(WeakCellHorizon, model.RefTempC)
	for i := 0; i < n; i++ {
		cell := WeakCell{
			Offset:       src.Uint64() % d.bits,
			RetentionSec: model.sampleWeakTail(pWeak, src),
			TrueCell:     src.Bool(),
		}
		low := false
		if refBernoulli(src, VRTFraction) {
			cell.AltRetentionSec = cell.RetentionSec / VRTRetentionRatio
			low = src.Bool()
			d.vrt = append(d.vrt, len(d.weak))
		}
		d.weak = append(d.weak, cell)
		d.low = append(d.low, low)
	}
}

// newRefSystem fabricates what New fabricates, under the reference
// kernels.
func newRefSystem(cfg Config, model RetentionModel, src *rng.Source) *refSystem {
	r := &refSystem{model: model, tempC: cfg.TempC}
	pWeak := model.FailProb(WeakCellHorizon, model.RefTempC)
	for ch := 0; ch < cfg.Channels; ch++ {
		var dom []*refDIMM
		for i := 0; i < cfg.DIMMsPerChannel; i++ {
			s := src.Split()
			d := &refDIMM{bits: cfg.DIMMBytes * 8}
			d.grow(s.Binomial(clampInt(d.bits), pWeak), model, s)
			dom = append(dom, d)
		}
		r.domains = append(r.domains, dom)
	}
	return r
}

// toggle is the reference telegraph walker.
func refToggle(dom []*refDIMM, p float64, src *rng.Source) {
	for _, d := range dom {
		for _, i := range d.vrt {
			if refBernoulli(src, p) {
				d.low[i] = !d.low[i]
			}
		}
	}
}

// patternTest is the reference RunPatternTest.
func (r *refSystem) patternTest(di int, refresh time.Duration, src *rng.Source) int {
	refToggle(r.domains[di], VRTToggleProb, src)
	interval := refresh.Seconds()
	scale := r.model.tempScale(r.tempC)
	errs := 0
	for _, d := range r.domains[di] {
		for i, c := range d.weak {
			ret := c.RetentionSec
			if c.AltRetentionSec > 0 && d.low[i] {
				ret = c.AltRetentionSec
			}
			if ret*scale < interval && src.Bool() {
				errs++
			}
		}
	}
	return errs
}

// growWeakCells is the reference GrowWeakCells.
func (r *refSystem) growWeakCells(di, days int, rate float64, src *rng.Source) {
	for _, d := range r.domains[di] {
		p := min(rate*float64(days)/float64(d.bits), 1)
		d.grow(src.Binomial(clampInt(d.bits), p), r.model, src)
	}
}

// sameState reports the first difference between ms and the reference:
// the cells, the VRT index and every cell's materialized telegraph
// state.
func sameState(ms *MemorySystem, r *refSystem) error {
	for di, dom := range ms.Domains {
		for dj, d := range dom.DIMMs {
			ref := r.domains[di][dj]
			if len(d.Weak) != len(ref.weak) || len(d.vrt) != len(ref.vrt) {
				return fmt.Errorf("domain %d DIMM %d: %d cells %d VRT, reference %d and %d",
					di, dj, len(d.Weak), len(d.vrt), len(ref.weak), len(ref.vrt))
			}
			for i := range d.Weak {
				if d.Weak[i] != ref.weak[i] || d.LowState(i) != ref.low[i] {
					return fmt.Errorf("domain %d DIMM %d cell %d: %+v low=%t, reference %+v low=%t",
						di, dj, i, d.Weak[i], d.LowState(i), ref.weak[i], ref.low[i])
				}
			}
			for j, i := range d.vrt {
				if ref.vrt[j] != i {
					return fmt.Errorf("domain %d DIMM %d: VRT ordinal %d is cell %d, reference %d", di, dj, j, i, ref.vrt[j])
				}
			}
		}
	}
	return nil
}

// toggleProbs are the probabilities the equivalence test toggles at:
// Bernoulli's no-draw edges, the NaN that draws and never succeeds,
// the fine and coarse toggles, and the largest float below 1.
var toggleProbs = []float64{
	math.NaN(), math.Copysign(0, -1), 0, 5e-324, 1e-9, VRTToggleProb,
	CoarseToggleProb(1440), 0.5, math.Nextafter(1, 0), 1,
}

// TestKernelsMatchReference drives generated populations of several
// seeds and DIMM sizes through interleaved growth, fine and coarse
// toggles at every edge probability, pattern tests at shifting
// intervals and temperatures, log-bound bursts, reindexing and
// Flatten/StampInto round trips, and after every step compares the
// production kernels with the reference: the bit errors, the source's
// position, and every cell with its materialized telegraph state.
func TestKernelsMatchReference(t *testing.T) {
	model := DefaultRetentionModel()
	intervals := []time.Duration{
		64 * time.Millisecond, 512 * time.Millisecond, 1500 * time.Millisecond,
		2 * time.Second, 3 * time.Second, 4 * time.Second, 5 * time.Second, 8 * time.Second,
	}
	temps := []float64{35, 45, 50, 55, 65, 80}
	cases := []struct {
		cfg   Config
		seed  uint64
		steps int
	}{
		{Config{Channels: 3, DIMMsPerChannel: 2, DIMMBytes: 64 << 20, DeviceGb: 2, TempC: 45}, 1, 400},
		{Config{Channels: 3, DIMMsPerChannel: 2, DIMMBytes: 64 << 20, DeviceGb: 2, TempC: 45}, 2, 400},
		{Config{Channels: 2, DIMMsPerChannel: 2, DIMMBytes: 1 << 30, DeviceGb: 2, TempC: 45}, 3, 120},
		{Config{Channels: 4, DIMMsPerChannel: 1, DIMMBytes: 1 << 30, DeviceGb: 2, TempC: 55}, 4, 120},
	}
	if !testing.Short() {
		cases = append(cases, struct {
			cfg   Config
			seed  uint64
			steps int
		}{DefaultConfig(), 5, 40})
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%dx%dx%dMiB/seed%d", tc.cfg.Channels, tc.cfg.DIMMsPerChannel, tc.cfg.DIMMBytes>>20, tc.seed), func(t *testing.T) {
			ms, err := New(tc.cfg, model, rng.New(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefSystem(tc.cfg, model, rng.New(tc.seed))
			src, refSrc := rng.New(tc.seed+100), rng.New(tc.seed+100)
			check := func(step int, op string) {
				t.Helper()
				if src.State() != refSrc.State() {
					t.Fatalf("step %d %s: stream at %#x, reference %#x", step, op, src.State(), refSrc.State())
				}
				if err := sameState(ms, ref); err != nil {
					t.Fatalf("step %d %s: %v", step, op, err)
				}
			}
			check(0, "fabrication")
			ops := rng.New(tc.seed + 200)
			bursts := 0
			for step := 1; step <= tc.steps; step++ {
				di := ops.Intn(len(ms.Domains))
				dom := ms.Domains[di]
				var op string
				switch k := ops.Intn(16); {
				case k < 3:
					op = "fine toggle"
					toggleVRT(dom, src)
					refToggle(ref.domains[di], VRTToggleProb, refSrc)
				case k < 6:
					p := toggleProbs[ops.Intn(len(toggleProbs))]
					op = fmt.Sprintf("toggle p=%g", p)
					toggleVRTWith(dom, p, src)
					refToggle(ref.domains[di], p, refSrc)
				case k < 11:
					if dom.Reliable {
						continue
					}
					iv, temp := intervals[ops.Intn(len(intervals))], temps[ops.Intn(len(temps))]
					op = fmt.Sprintf("pattern test %v at %g°C", iv, temp)
					if err := dom.SetRefresh(iv); err != nil {
						t.Fatal(err)
					}
					ms.TempC, ref.tempC = temp, temp
					got, want := ms.RunPatternTest(dom, src).BitErrors, ref.patternTest(di, iv, refSrc)
					if got != want {
						t.Fatalf("step %d %s: %d bit errors, reference %d", step, op, got, want)
					}
				case k < 13:
					days := 1 + ops.Intn(3)
					op = fmt.Sprintf("grow %d days", days)
					GrowWeakCells(dom, days, 40, model, src)
					ref.growWeakCells(di, days, 40, refSrc)
				case k == 13:
					op = "flatten and stamp"
					f := ms.Flatten()
					if err := f.Validate(); err != nil {
						t.Fatalf("step %d: flattened image refused: %v", step, err)
					}
					// Alternate a cold stamp into a fresh system with a
					// warm same-shape stamp over the written one.
					if ops.Intn(2) == 0 {
						ms = &MemorySystem{}
					}
					f.StampInto(ms)
				case k == 14:
					if bursts > 1 {
						continue
					}
					bursts++
					op = "log-bound burst"
					for i := 0; i < maxToggleLog+3; i++ {
						ToggleVRTCoarse(dom, 1440, src)
						refToggle(ref.domains[di], CoarseToggleProb(1440), refSrc)
					}
					for _, d := range dom.DIMMs {
						if len(d.log) >= maxToggleLog {
							t.Fatalf("step %d: toggle log grew to %d entries", step, len(d.log))
						}
					}
				default:
					op = "reindex"
					ms.Reindex()
				}
				check(step, op)
			}
		})
	}
}
