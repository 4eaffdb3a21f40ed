package dram

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/stats"
)

// The sequential kernels the candidate index, the lazy telegraph and
// the lazily evaluated retentions replaced, kept as the reference the
// production kernels must match draw for draw and bit for bit: an
// eager fabrication that evaluates every cell's retention, one
// telegraph flag per cell, one float Bernoulli draw per VRT cell per
// toggle, and a scan of every weak cell per pattern test.

// refCell is a weak cell as eager fabrication materializes it: a VRT
// cell's alternate (short-state) retention is non-zero.
type refCell struct {
	ret, alt float64
	vrt      bool
}

// refDIMM is a DIMM under the reference kernels.
type refDIMM struct {
	bits uint64
	weak []refCell
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
		src.Uint64() // the cell's bit offset, which no kernel reads
		u := src.Float64()
		for u == 0 {
			u = src.Float64()
		}
		cell := refCell{ret: math.Exp(model.MuLog + model.SigmaLog*stats.NormalQuantile(u*pWeak))}
		src.Bool() // its polarity, which no kernel reads either
		low := false
		if refBernoulli(src, VRTFraction) {
			cell.vrt = true
			cell.alt = cell.ret / VRTRetentionRatio
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
			ret := c.ret
			if c.vrt && d.low[i] {
				ret = c.alt
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

// materialize returns cell i of a DIMM as eager fabrication would have
// drawn it under the model, its retention evaluated from its tail
// uniform and its VRT membership read from the VRT index.
func materialize(d *DIMM, i int, model RetentionModel) refCell {
	_, vrt := slices.BinarySearch(d.vrt, i)
	c := refCell{ret: model.tail().retention(d.weak[i]), vrt: vrt}
	if c.vrt {
		c.alt = c.ret / VRTRetentionRatio
	}
	return c
}

// planted is a weak cell a test places by hand: its long-state
// retention in seconds at the reference temperature, and whether it is
// a VRT cell.
type planted struct {
	ret float64
	vrt bool
}

// plant builds a DIMM holding exactly the planted cells in their long
// telegraph states. Each gets the smallest tail uniform whose
// retention under the model reaches the planted one, which it exceeds
// by rounding at most.
func plant(capacityBytes uint64, model RetentionModel, cs ...planted) *DIMM {
	d := &DIMM{CapacityBytes: capacityBytes}
	t := model.tail()
	for i, c := range cs {
		if c.vrt {
			if len(d.vrt)&7 == 0 {
				d.low = append(d.low, 0)
			}
			d.vrt = append(d.vrt, i)
		}
		d.weak = append(d.weak, t.threshold(c.ret))
	}
	return d
}

// sameState reports the first difference between ms and the reference:
// the cells with their materialized retentions, bit for bit, the VRT
// index, every cell's materialized telegraph state, and the derived
// state the screen maintains — the candidates are exactly the cells
// whose shorter retention is below the watermark, each holding the
// reference's retention, and no other cell's is below the floor.
func sameState(ms *MemorySystem, r *refSystem) error {
	for di, dom := range ms.Domains {
		for dj, d := range dom.DIMMs {
			ref := r.domains[di][dj]
			if d.Len() != len(ref.weak) || len(d.vrt) != len(ref.vrt) {
				return fmt.Errorf("domain %d DIMM %d: %d cells %d VRT, reference %d and %d",
					di, dj, d.Len(), len(d.vrt), len(ref.weak), len(ref.vrt))
			}
			k := 0
			for i := range ref.weak {
				c, rc := materialize(d, i, r.model), ref.weak[i]
				if c != rc || d.LowState(i) != ref.low[i] {
					return fmt.Errorf("domain %d DIMM %d cell %d: %+v low=%t, reference %+v low=%t",
						di, dj, i, c, d.LowState(i), rc, ref.low[i])
				}
				short := rc.ret
				if rc.vrt {
					short = rc.alt
				}
				isCand := k < len(d.cand) && d.cand[k].cell == i
				switch {
				case isCand != (short < d.watermark):
					return fmt.Errorf("domain %d DIMM %d cell %d: candidate=%t, shorter retention %v, watermark %v",
						di, dj, i, isCand, short, d.watermark)
				case isCand && d.cand[k].ret != rc.ret:
					return fmt.Errorf("domain %d DIMM %d cell %d: candidate retention %v, reference %v", di, dj, i, d.cand[k].ret, rc.ret)
				case !isCand && short < d.floor:
					return fmt.Errorf("domain %d DIMM %d cell %d: shorter retention %v below the floor %v", di, dj, i, short, d.floor)
				}
				if isCand {
					k++
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
// position, every cell with its materialized retentions and telegraph
// state, and the candidates and floor the screen derives.
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

// refRaise is raise as the single loop it was: every cell in turn,
// told apart as VRT by comparing its index with the next VRT cell's,
// with both classes' minima kept in one array. It is the reference the
// segment-wise scan must match candidate for candidate.
func (d *DIMM) refRaise(w float64, sc *screen) {
	if !(w > d.watermark) {
		return
	}
	if w <= d.floor {
		d.watermark = w
		return
	}
	prev := d.watermark
	d.watermark, d.floor = w, math.Inf(1)
	d.cand = d.cand[:0]
	thr := sc.thresholds()
	least := [2]uint64{math.MaxUint64, math.MaxUint64}
	j := 0 // the VRT ordinal of the next VRT cell
	for i, u := range d.weak {
		k := 0 // the cell's screen class: 1 for a VRT cell
		if j < len(d.vrt) && d.vrt[j] == i {
			k = 1
		}
		if u >= thr[k] {
			if u < least[k] {
				least[k] = u
			}
			j += k
			continue
		}
		c := candidate{cell: i, ord: -1, ret: sc.t.retention(u)}
		if k == 1 {
			c.ord = j
			j++
		}
		r := c.shorter()
		if !(r < w) {
			if r < d.floor {
				d.floor = r
			}
			continue
		}
		d.cand = append(d.cand, c)
		if c.ord >= 0 && !(r < prev) {
			if d.logFlips(c.ord) {
				d.flip(c.ord)
			}
			d.markCand(c.ord)
		}
	}
	d.unscreened = least
	for k, u := range least {
		if u == math.MaxUint64 {
			continue
		}
		r := sc.t.retention(u)
		if k == 1 {
			r /= VRTRetentionRatio
		}
		if r *= 1 - screenMargin; r < d.floor {
			d.floor = r
		}
	}
	d.floor = math.Max(d.floor, w)
}

// cloneDIMM returns a deep copy of d's cells, telegraph state and
// derived state, owning all of it.
func cloneDIMM(d *DIMM) *DIMM {
	return &DIMM{
		CapacityBytes: d.CapacityBytes,
		weak:          slices.Clone(d.weak),
		vrt:           slices.Clone(d.vrt),
		low:           slices.Clone(d.low),
		watermark:     d.watermark,
		floor:         d.floor,
		unscreened:    d.unscreened,
		cand:          slices.Clone(d.cand),
		candMask:      slices.Clone(d.candMask),
		log:           slices.Clone(d.log),
	}
}

// sameScan reports the first difference in the state a scan writes.
func sameScan(d, ref *DIMM) error {
	switch {
	case d.watermark != ref.watermark || d.floor != ref.floor:
		return fmt.Errorf("watermark %v floor %v, reference %v and %v", d.watermark, d.floor, ref.watermark, ref.floor)
	case d.unscreened != ref.unscreened:
		return fmt.Errorf("unscreened %#x, reference %#x", d.unscreened, ref.unscreened)
	case !slices.Equal(d.cand, ref.cand):
		return fmt.Errorf("%d candidates %v, reference %d %v", len(d.cand), d.cand, len(ref.cand), ref.cand)
	case !bytes.Equal(d.candMask, ref.candMask) || !bytes.Equal(d.low, ref.low):
		return fmt.Errorf("candidate mask %x low %x, reference %x and %x", d.candMask, d.low, ref.candMask, ref.low)
	}
	return nil
}

// TestRaiseMatchesReference lays VRT cells over fabricated weak-cell
// columns in every shape the segment-wise scan distinguishes — none,
// all, at the first and last positions, in consecutive runs, at random
// and on an empty DIMM — and drives raise and refRaise through the
// same deferred toggles and rising watermarks, some passing the floor
// and some not; after every step the scanned state must be identical.
func TestRaiseMatchesReference(t *testing.T) {
	model := DefaultRetentionModel()
	layouts := []struct {
		name string
		vrt  func(n int, gen *rng.Source) []int
	}{
		{"no VRT", func(int, *rng.Source) []int { return nil }},
		{"all VRT", func(n int, _ *rng.Source) []int {
			var v []int
			for i := range n {
				v = append(v, i)
			}
			return v
		}},
		{"first and last", func(n int, _ *rng.Source) []int { return []int{0, n - 1} }},
		{"runs", func(n int, gen *rng.Source) []int {
			var v []int
			for i := 0; i < n; {
				run := 1 + gen.Intn(6)
				for ; run > 0 && i < n; run-- {
					v = append(v, i)
					i++
				}
				i += gen.Intn(8)
			}
			return v
		}},
		{"random", func(n int, gen *rng.Source) []int {
			var v []int
			for i := range n {
				if gen.Bernoulli(VRTFraction) {
					v = append(v, i)
				}
			}
			return v
		}},
		{"empty", nil},
	}
	scanned, skipped := 0, 0
	for seed := uint64(1); seed <= 4; seed++ {
		base := NewDIMM(256<<20, 2, model, rng.New(seed))
		for _, lay := range layouts {
			gen := rng.New(seed + 50)
			d := &DIMM{CapacityBytes: base.CapacityBytes}
			if lay.vrt != nil {
				d.weak = slices.Clone(base.weak)
				d.vrt = lay.vrt(len(d.weak), gen)
				for range lowBytes(len(d.vrt)) {
					d.low = append(d.low, byte(gen.Uint64()))
				}
			}
			ref := cloneDIMM(d)
			dom, refDom := &Domain{DIMMs: []*DIMM{d}}, &Domain{DIMMs: []*DIMM{ref}}
			src := rng.New(seed + 100)
			w := 0.05
			for step := range 40 {
				fail := func(op string, err error) {
					t.Fatalf("seed %d, %s, step %d %s: %v", seed, lay.name, step, op, err)
				}
				if gen.Intn(3) == 0 {
					refSrc := *src
					toggleVRTWith(dom, 0.3, src)
					toggleVRTWith(refDom, 0.3, &refSrc)
					if src.State() != refSrc.State() {
						fail("toggle", fmt.Errorf("stream at %#x, reference %#x", src.State(), refSrc.State()))
					}
				}
				// Every other watermark stays a hair above the last, below
				// the floor a scan leaves; the rest climb past it.
				if step%2 == 0 {
					w *= 1 + 1e-12
				} else {
					w *= 1 + gen.Float64()
				}
				if w > d.floor {
					scanned++
				} else {
					skipped++
				}
				sc, refSc := screen{t: model.tail(), w: w}, screen{t: model.tail(), w: w}
				d.raise(w, &sc)
				ref.refRaise(w, &refSc)
				if err := sameScan(d, ref); err != nil {
					fail(fmt.Sprintf("raise to %v", w), err)
				}
			}
		}
	}
	if scanned == 0 || skipped == 0 {
		t.Fatalf("%d raises scanned and %d stayed below the floor; want both", scanned, skipped)
	}
}
