package dram

import (
	"math"
	"slices"
	"testing"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
)

func TestVRTPopulationExists(t *testing.T) {
	d := NewDIMM(8<<30, 2, DefaultRetentionModel(), rng.New(91))
	vrt := 0
	for i := range d.Len() {
		if c := materialize(d, i, DefaultRetentionModel()); c.vrt {
			vrt++
			if c.alt >= c.ret {
				t.Fatal("VRT short state not shorter than long state")
			}
		}
	}
	frac := float64(vrt) / float64(d.Len())
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("VRT fraction = %.3f, want ~%.2f", frac, VRTFraction)
	}
}

func TestEffectiveRetentionHonoursState(t *testing.T) {
	model := DefaultRetentionModel()
	d := plant(1<<20, model, planted{ret: 6, vrt: true}, planted{ret: 6})
	six := materialize(d, 1, model).ret
	if math.Abs(six-6) > 1e-12 {
		t.Fatalf("planted retention %v, want 6", six)
	}
	vrtCell, stable := candidate{cell: 0, ord: 0, ret: six}, candidate{cell: 1, ord: -1, ret: six}
	long := d.retention(vrtCell)
	d.flip(0)
	if !d.LowState(0) {
		t.Fatal("flip did not move the VRT cell to its short state")
	}
	if short := d.retention(vrtCell); short >= long {
		t.Fatalf("low state retention %v not below long %v", short, long)
	}
	if d.LowState(1) || d.retention(stable) != six {
		t.Fatal("stable cell affected by the telegraph state")
	}
}

// TestToggleVRTOnlyTouchesVRTCells: toggles write only the telegraph
// states of the VRT cells — the cells and the VRT index stay as
// fabricated, and no bit past the last VRT cell is ever set.
func TestToggleVRTOnlyTouchesVRTCells(t *testing.T) {
	ms, fresh := newTestSystem(t, 95), newTestSystem(t, 95)
	dom := ms.RelaxedDomains()[0]
	src := rng.New(1)
	for k := 0; k < 50; k++ {
		toggleVRT(dom, src)
	}
	for i, d := range dom.DIMMs {
		f := fresh.RelaxedDomains()[0].DIMMs[i]
		if !slices.Equal(d.weak, f.weak) || !slices.Equal(d.vrt, f.vrt) {
			t.Fatalf("DIMM %d: toggles changed the cells or the VRT index", i)
		}
	}
	if err := ms.Flatten().Validate(); err != nil {
		t.Fatalf("toggled image refused: %v", err)
	}
}

// setLow puts cell i of a DIMM in the given telegraph state.
func setLow(d *DIMM, i int, low bool) {
	if d.LowState(i) != low {
		j, _ := slices.BinarySearch(d.vrt, i)
		d.fold()
		d.flip(j)
	}
}

// TestVRTJustifiesDerate is the reason the StressLog publishes a
// derated refresh interval: a VRT cell that sits in its long-retention
// state during characterization passes the longest swept interval,
// then fails in the field once it telegraph-switches into its short
// state. The derated interval stays clean. The cell is planted
// explicitly so the mechanism is demonstrated deterministically.
func TestVRTJustifiesDerate(t *testing.T) {
	// One DIMM with exactly one VRT cell: long retention 3 s, short
	// state 2 s (3 s / VRTRetentionRatio), currently (and during
	// characterization) in the long state.
	dimm := plant(8<<30, DefaultRetentionModel(), planted{ret: 3, vrt: true})
	dom := &Domain{Name: "planted", DIMMs: []*DIMM{dimm}, Refresh: vfr.NominalRefresh}
	ms := &MemorySystem{Model: DefaultRetentionModel(), Domains: []*Domain{dom}, TempC: 45}

	// Characterization with a toggle-free stream: the cell stays high.
	points, err := ms.CharacterizeRefresh(
		[]time.Duration{1250 * time.Millisecond, 2500 * time.Millisecond}, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	maxSafe, ok := MaxSafeRefresh(points)
	if !ok || maxSafe != 2500*time.Millisecond {
		t.Fatalf("characterization should observe 2.5s as error-free (cell in long state): %v %v (points %+v)", maxSafe, ok, points)
	}

	fieldErrors := func(refresh time.Duration, windows int, seed uint64) int {
		if err := dom.SetRefresh(refresh); err != nil {
			t.Fatal(err)
		}
		// Reset the cell to the state characterization left it in.
		setLow(dimm, 0, false)
		total := 0
		src := rng.New(seed)
		for w := 0; w < windows; w++ {
			total += ms.RunPatternTest(dom, src).BitErrors
		}
		return total
	}

	const windows = 600 // P(no toggle) = 0.98^600 ~ 5e-6
	atMax := fieldErrors(maxSafe, windows, 5)
	atDerated := fieldErrors(maxSafe/2, windows, 6)
	if atMax == 0 {
		t.Fatal("field run at the observed-safe interval never hit the VRT cell")
	}
	if atDerated != 0 {
		t.Fatalf("derated interval produced %d field errors", atDerated)
	}
	t.Logf("field run: %d error windows at observed-safe %v, 0 at derated %v",
		atMax, maxSafe, maxSafe/2)
}

// TestCoarseToggleProbClosedForm pins the fast-forward closed form
// against brute-force window stepping: after n windows a cell has
// flipped iff it toggled an odd number of times, whose probability is
// 0.5*(1-(1-2p)^n).
func TestCoarseToggleProbClosedForm(t *testing.T) {
	if got := CoarseToggleProb(0); got != 0 {
		t.Fatalf("zero windows should never flip, got %g", got)
	}
	if got, want := CoarseToggleProb(1), VRTToggleProb; math.Abs(got-want) > 1e-15 {
		t.Fatalf("single window flip prob %g, want %g", got, want)
	}
	// Recurrence check: q(n+1) = q(n)*(1-p) + (1-q(n))*p.
	q := 0.0
	for n := 1; n <= 64; n++ {
		q = q*(1-VRTToggleProb) + (1-q)*VRTToggleProb
		if got := CoarseToggleProb(n); math.Abs(got-q) > 1e-12 {
			t.Fatalf("CoarseToggleProb(%d) = %g, recurrence gives %g", n, got, q)
		}
	}
	// A full day of windows fully mixes the telegraph state.
	if got := CoarseToggleProb(24 * 60); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("day-scale toggle prob %g, want ~0.5", got)
	}
}

// TestToggleVRTCoarseTouchesOnlyVRT checks the coarse toggle flips
// only VRT cells and matches the sequential reference draw for draw,
// with and without candidates to flip eagerly.
func TestToggleVRTCoarseTouchesOnlyVRT(t *testing.T) {
	model := DefaultRetentionModel()
	cfg := Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 1 << 30, DeviceGb: 2, TempC: 45}
	for _, admit := range []bool{false, true} {
		ms, err := New(cfg, model, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefSystem(cfg, model, rng.New(7))
		if admit {
			ms.Domains[1].DIMMs[0].raise(8, &screen{t: model.tail(), w: 8})
		}
		src, refSrc := rng.New(3), rng.New(3)
		for day := 0; day < 90; day++ {
			ToggleVRTCoarse(ms.Domains[1], 24*60, src)
			refToggle(ref.domains[1], CoarseToggleProb(24*60), refSrc)
		}
		if src.State() != refSrc.State() {
			t.Fatal("coarse toggles left the stream elsewhere than the reference")
		}
		if err := sameState(ms, ref); err != nil {
			t.Fatalf("admit=%t: %v", admit, err)
		}
	}
}

// TestReindexRebuildsVRTIndex checks Reindex rebuilds a cleared index
// and keeps every cell's telegraph state, deferred toggles included:
// a reindexed system toggles on exactly like one that never was.
func TestReindexRebuildsVRTIndex(t *testing.T) {
	model := DefaultRetentionModel()
	cfg := Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 1 << 30, DeviceGb: 2, TempC: 45}
	ms, err := New(cfg, model, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSystem(cfg, model, rng.New(11))
	src, refSrc := rng.New(5), rng.New(5)
	for di, dom := range ms.Domains {
		ToggleVRTCoarse(dom, 1440, src)
		refToggle(ref.domains[di], CoarseToggleProb(1440), refSrc)
	}
	ms.Reindex()
	if err := sameState(ms, ref); err != nil {
		t.Fatalf("reindex changed the state: %v", err)
	}
	for di, dom := range ms.Domains {
		ToggleVRTCoarse(dom, 1440, src)
		refToggle(ref.domains[di], CoarseToggleProb(1440), refSrc)
	}
	if err := sameState(ms, ref); err != nil {
		t.Fatalf("reindexed toggle diverged: %v", err)
	}
}
