package dram

import (
	"reflect"
	"testing"
	"time"

	"uniserver/internal/rng"
)

// sharedSystem fabricates a two-channel memory system and its template
// image; stamping the image into a fresh system yields DIMMs that
// alias the template's slabs.
func sharedSystem(t *testing.T) (*MemorySystem, *FlatMemory) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Channels, cfg.DIMMsPerChannel = 2, 2
	ms, err := New(cfg, DefaultRetentionModel(), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	return ms, ms.Flatten()
}

func stamped(f *FlatMemory) *MemorySystem {
	ms := &MemorySystem{}
	f.StampInto(ms)
	return ms
}

// aliases reports whether d's weak cells are the template slab's.
func aliases(d *DIMM, f *FlatMemory) bool {
	if len(d.Weak) == 0 {
		return d.shared
	}
	for i := range f.cells {
		if &f.cells[i] == &d.Weak[0] {
			return true
		}
	}
	return false
}

// TestStampSharesUntilFirstWrite pins the copy-on-write contract of
// FlatMemory.StampInto for every mutator of the weak-cell population:
// a stamped system aliases the template's slabs; the first write to a
// DIMM gives it a private copy; the result is exactly what the same
// write does to a deep clone; and the template's slabs never change.
func TestStampSharesUntilFirstWrite(t *testing.T) {
	src, f := sharedSystem(t)
	digest := f.Digest()
	model := DefaultRetentionModel()
	writers := []struct {
		name string
		// relaxedOnly: the writer touches only relaxed domains, so the
		// reliable domain must stay shared.
		relaxedOnly bool
		do          func(ms *MemorySystem)
	}{
		{"RunPatternTest", true, func(ms *MemorySystem) {
			for _, dom := range ms.RelaxedDomains() {
				ms.RunPatternTest(dom, rng.New(3))
			}
		}},
		{"CharacterizeRefresh", true, func(ms *MemorySystem) {
			if _, err := ms.CharacterizeRefresh([]time.Duration{2 * time.Second, 5 * time.Second}, 2, rng.New(4)); err != nil {
				t.Fatal(err)
			}
		}},
		{"ToggleVRTCoarse", false, func(ms *MemorySystem) {
			s := rng.New(5)
			for _, dom := range ms.Domains {
				ToggleVRTCoarse(dom, 500, s)
			}
		}},
		{"GrowWeakCells", false, func(ms *MemorySystem) {
			s := rng.New(6)
			for _, dom := range ms.Domains {
				GrowWeakCells(dom, 30, 50, model, s)
			}
		}},
		{"Grow", false, func(ms *MemorySystem) {
			for _, dom := range ms.Domains {
				for _, d := range dom.DIMMs {
					d.Grow(40, model, rng.New(7))
				}
			}
		}},
		{"Reindex", false, func(ms *MemorySystem) { ms.Reindex() }},
	}
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			ms := stamped(f)
			for _, dom := range ms.Domains {
				for _, d := range dom.DIMMs {
					if !d.shared || !aliases(d, f) {
						t.Fatal("stamped DIMM does not alias the template slab")
					}
				}
			}
			ref := src.Clone()
			w.do(ms)
			w.do(ref)
			for di, dom := range ms.Domains {
				for i, d := range dom.DIMMs {
					wantShared := w.relaxedOnly && dom.Reliable
					if d.shared != wantShared || aliases(d, f) != wantShared {
						t.Fatalf("domain %s DIMM %d: shared=%t aliases=%t after %s, want %t",
							dom.Name, i, d.shared, aliases(d, f), w.name, wantShared)
					}
					r := ref.Domains[di].DIMMs[i]
					if !reflect.DeepEqual(d.Weak, r.Weak) || !reflect.DeepEqual(append([]int{}, d.vrt...), append([]int{}, r.vrt...)) {
						t.Fatalf("domain %s DIMM %d: copy-on-write result differs from a deep clone's", dom.Name, i)
					}
				}
			}
			if f.Digest() != digest {
				t.Fatalf("%s wrote through to the template slabs", w.name)
			}
		})
	}
}

// TestRestampAfterUnshareShares pins that a written (unshared) arena
// goes back to aliasing the template on its next stamp, keeping the
// private buffer its copy-on-write made as the spare for the next one
// — so a warm stamp+write cycle allocates nothing.
func TestRestampAfterUnshareShares(t *testing.T) {
	_, f := sharedSystem(t)
	ms := stamped(f)
	d := ms.Domains[1].DIMMs[0]
	ToggleVRTCoarse(ms.Domains[1], 100, rng.New(1))
	if d.shared {
		t.Fatal("toggle left the DIMM shared")
	}
	private := &d.Weak[0]
	f.StampInto(ms)
	if ms.Domains[1].DIMMs[0] != d {
		t.Fatal("same-shape stamp replaced the DIMM object")
	}
	if !d.shared || !aliases(d, f) {
		t.Fatal("re-stamp after unshare does not share the template slab")
	}
	if &d.spareWeak[:1][0] != private {
		t.Fatal("re-stamp dropped the DIMM's private buffer")
	}
	src := rng.New(2)
	allocs := testing.AllocsPerRun(20, func() {
		f.StampInto(ms)
		for _, dom := range ms.Domains {
			ToggleVRTCoarse(dom, 100, src)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm stamp + copy-on-write allocates %.0f times, want 0", allocs)
	}
}

// TestCloneOfSharedIsOwned: a clone of a stamped system owns its
// cells, so writing the clone neither unshares nor touches the
// template.
func TestCloneOfSharedIsOwned(t *testing.T) {
	_, f := sharedSystem(t)
	digest := f.Digest()
	c := stamped(f).Clone()
	for _, dom := range c.Domains {
		for _, d := range dom.DIMMs {
			if d.shared || aliases(d, f) || d.spareWeak != nil {
				t.Fatal("clone of a stamped DIMM still aliases the template")
			}
		}
		ToggleVRTCoarse(dom, 500, rng.New(9))
	}
	if f.Digest() != digest {
		t.Fatal("writing a clone of a stamped system changed the template")
	}
}
