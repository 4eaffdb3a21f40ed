package dram

import (
	"math"
	"testing"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
)

func TestVRTPopulationExists(t *testing.T) {
	d := NewDIMM(8<<30, 2, DefaultRetentionModel(), rng.New(91))
	vrt := 0
	for _, c := range d.Weak {
		if c.AltRetentionSec > 0 {
			vrt++
			if c.AltRetentionSec >= c.RetentionSec {
				t.Fatal("VRT short state not shorter than long state")
			}
		}
	}
	frac := float64(vrt) / float64(len(d.Weak))
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("VRT fraction = %.3f, want ~%.2f", frac, VRTFraction)
	}
}

func TestEffectiveRetentionHonoursState(t *testing.T) {
	ms := newTestSystem(t, 93)
	cell := WeakCell{RetentionSec: 6, AltRetentionSec: 4}
	long := ms.effectiveRetention(cell)
	cell.LowState = true
	short := ms.effectiveRetention(cell)
	if short >= long {
		t.Fatalf("low state retention %v not below long %v", short, long)
	}
	stable := WeakCell{RetentionSec: 6}
	stable.LowState = true // meaningless for stable cells
	if ms.effectiveRetention(stable) != long*(6.0/6.0) {
		t.Fatal("stable cell affected by state flag")
	}
}

func TestToggleVRTOnlyTouchesVRTCells(t *testing.T) {
	ms := newTestSystem(t, 95)
	dom := ms.RelaxedDomains()[0]
	before := make(map[int]bool)
	for i, c := range dom.DIMMs[0].Weak {
		if c.AltRetentionSec == 0 {
			before[i] = c.LowState
		}
	}
	src := rng.New(1)
	for k := 0; k < 50; k++ {
		toggleVRT(dom, src)
	}
	for i, want := range before {
		if dom.DIMMs[0].Weak[i].LowState != want {
			t.Fatal("stable cell state mutated")
		}
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
	// state 2 s, currently (and during characterization) in the long
	// state.
	dimm := &DIMM{
		CapacityBytes: 8 << 30,
		DeviceGb:      2,
		Weak: []WeakCell{{
			Offset:          12345,
			RetentionSec:    3,
			TrueCell:        true,
			AltRetentionSec: 2,
			LowState:        false,
		}},
	}
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
		dimm.Weak[0].LowState = false
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
// only VRT cells and matches the index-free path draw for draw.
func TestToggleVRTCoarseTouchesOnlyVRT(t *testing.T) {
	model := DefaultRetentionModel()
	mkDom := func(seed uint64) *Domain {
		return &Domain{
			Name:    "d",
			DIMMs:   []*DIMM{NewDIMM(1<<30, 2, model, rng.New(seed))},
			Refresh: 64 * time.Millisecond,
		}
	}
	a, b := mkDom(7), mkDom(7)
	// Strip b's index so it exercises the fallback scan; the resulting
	// states must be identical (same Bernoulli order).
	for _, dimm := range b.DIMMs {
		dimm.vrt = nil
	}
	ToggleVRTCoarse(a, 90*24*60, rng.New(3))
	ToggleVRTCoarse(b, 90*24*60, rng.New(3))
	for di, dimm := range a.DIMMs {
		for i, cell := range dimm.Weak {
			other := b.DIMMs[di].Weak[i]
			if cell.LowState != other.LowState {
				t.Fatalf("indexed and fallback coarse toggles diverged at cell %d", i)
			}
			if cell.AltRetentionSec == 0 && cell.LowState {
				t.Fatalf("coarse toggle flipped a non-VRT cell %d", i)
			}
		}
	}
}

// TestReindexRebuildsVRTIndex checks a cleared index is rebuilt
// equivalent to the fabricated one: the indexed fast path and a
// freshly reindexed system produce identical toggles.
func TestReindexRebuildsVRTIndex(t *testing.T) {
	model := DefaultRetentionModel()
	cfg := Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 1 << 30, DeviceGb: 2, TempC: 45}
	ms, err := New(cfg, model, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg, model, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, dom := range ms.Domains {
		for _, dimm := range dom.DIMMs {
			dimm.vrt = nil
		}
	}
	ms.Reindex()
	for di, dom := range ms.Domains {
		ToggleVRTCoarse(dom, 1440, rng.New(5))
		ToggleVRTCoarse(ref.Domains[di], 1440, rng.New(5))
		for dj, dimm := range dom.DIMMs {
			for i := range dimm.Weak {
				if dimm.Weak[i].LowState != ref.Domains[di].DIMMs[dj].Weak[i].LowState {
					t.Fatalf("reindexed toggle diverged at domain %d dimm %d cell %d", di, dj, i)
				}
			}
		}
	}
}
