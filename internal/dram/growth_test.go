package dram

import (
	"testing"

	"uniserver/internal/rng"
)

// TestGrowAppendsFabricationLikeCells: cells grown in the field draw
// from the same distributions fabrication does — in-range offsets,
// weak-tail retention, a VRT minority — and the private VRT index must
// keep addressing real VRT cells after the append.
func TestGrowAppendsFabricationLikeCells(t *testing.T) {
	m := DefaultRetentionModel()
	d := NewDIMM(8<<30, 2, m, rng.New(7))
	before, vrtBefore := d.Len(), len(d.vrt)
	d.Grow(500, m, rng.New(9))
	if got := d.Len() - before; got != 500 {
		t.Fatalf("grew %d cells, want 500", got)
	}
	for i := before; i < d.Len(); i++ {
		c := materialize(d, i, m)
		if c.offset >= d.Bits() {
			t.Fatalf("grown cell offset %d out of range", c.offset)
		}
		if c.ret <= 0 || c.ret >= WeakCellHorizon.Seconds() {
			t.Fatalf("grown cell retention %v outside the weak tail", c.ret)
		}
	}
	if len(d.vrt) == vrtBefore {
		t.Fatal("500 grown cells produced no VRT members at a 10% fraction")
	}
	for _, i := range d.vrt {
		if i < 0 || i >= d.Len() {
			t.Fatalf("vrt index %d out of range after growth", i)
		}
		if d.weak.flags[i]&flagVRT == 0 {
			t.Fatalf("vrt index %d addresses a non-VRT cell", i)
		}
	}
}

// TestGrowNonPositiveIsNoOp: zero or negative growth touches neither
// the population nor the source stream — the stream-silence property
// the lifetime engine's determinism contract leans on.
func TestGrowNonPositiveIsNoOp(t *testing.T) {
	m := DefaultRetentionModel()
	d := NewDIMM(8<<30, 2, m, rng.New(7))
	before := d.Len()
	src := rng.New(5)
	d.Grow(0, m, src)
	d.Grow(-3, m, src)
	if d.Len() != before {
		t.Fatalf("no-op growth changed the population: %d -> %d", before, d.Len())
	}
	if got, want := src.Uint64(), rng.New(5).Uint64(); got != want {
		t.Fatal("no-op growth consumed the source stream")
	}
}

// TestGrowWeakCellsDeterministicAndRateScaled: the domain-level grower
// is a pure function of (state, days, rate, stream), a zero rate is
// stream-silent, and the expected count scales with rate × days.
func TestGrowWeakCellsDeterministicAndRateScaled(t *testing.T) {
	m := DefaultRetentionModel()
	grow := func(days int, rate float64, seed uint64) *Domain {
		dom := &Domain{Name: "ch", DIMMs: []*DIMM{
			NewDIMM(8<<30, 2, m, rng.New(21)),
			NewDIMM(8<<30, 2, m, rng.New(22)),
		}}
		GrowWeakCells(dom, days, rate, m, rng.New(seed))
		return dom
	}
	count := func(dom *Domain) int {
		n := 0
		for _, d := range dom.DIMMs {
			n += d.Len()
		}
		return n
	}

	a, b := grow(10, 50, 5), grow(10, 50, 5)
	if count(a) != count(b) {
		t.Fatalf("same seed grew different counts: %d vs %d", count(a), count(b))
	}
	for di := range a.DIMMs {
		for ci := range a.DIMMs[di].Len() {
			if materialize(a.DIMMs[di], ci, m) != materialize(b.DIMMs[di], ci, m) {
				t.Fatalf("same seed grew different cells at DIMM %d cell %d", di, ci)
			}
		}
	}

	baseline := count(grow(0, 50, 5))
	src := rng.New(5)
	zero := &Domain{Name: "ch", DIMMs: []*DIMM{NewDIMM(8<<30, 2, m, rng.New(21))}}
	GrowWeakCells(zero, 10, 0, m, src)
	if got, want := src.Uint64(), rng.New(5).Uint64(); got != want {
		t.Fatal("zero-rate growth consumed the source stream")
	}

	// 2 DIMMs × 50 cells/day × 10 days = 1000 expected new cells;
	// binomial noise is ~±32, so a wide band is safe.
	grown := count(a) - baseline
	if grown < 800 || grown > 1200 {
		t.Fatalf("10 days at 50 cells/DIMM/day grew %d cells, want ~1000", grown)
	}
}
