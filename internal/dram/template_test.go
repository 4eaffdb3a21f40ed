package dram

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"uniserver/internal/rng"
)

// sharedSystem fabricates a two-channel memory system and its snapshot
// image; stamping the image into a fresh system yields DIMMs that
// alias the image's slabs. Every call fabricates the same system.
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

// digest hashes the image's slabs — the bytes every stamped DIMM reads
// until its first write. A changed digest means some writer skipped
// unshare.
func digest(f *FlatMemory) [sha256.Size]byte {
	b, _ := f.Cells.GobEncode()
	for _, i := range f.VRT {
		b = binary.LittleEndian.AppendUint64(b, uint64(i))
	}
	return sha256.Sum256(b)
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
	for i := range f.Cells {
		if &f.Cells[i] == &d.Weak[0] {
			return true
		}
	}
	return false
}

// TestStampSharesUntilFirstWrite pins the copy-on-write contract of
// FlatMemory.StampInto for every mutator of the weak-cell population:
// a stamped system aliases the image's slabs; the first write to a
// DIMM gives it a private copy; the result is exactly what the same
// write does to a second fabrication from the same seed; and the
// image's slabs never change.
func TestStampSharesUntilFirstWrite(t *testing.T) {
	_, f := sharedSystem(t)
	before := digest(f)
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
			ref, _ := sharedSystem(t)
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
						t.Fatalf("domain %s DIMM %d: copy-on-write result differs from a fresh fabrication's", dom.Name, i)
					}
				}
			}
			if digest(f) != before {
				t.Fatalf("%s wrote through to the image slabs", w.name)
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

// TestFlatMemoryValidate: Flatten's own output validates, and every
// broken count or index a decoded image could carry is refused.
func TestFlatMemoryValidate(t *testing.T) {
	_, f := sharedSystem(t)
	if err := f.Validate(); err != nil {
		t.Fatalf("flattened image refused: %v", err)
	}
	breaks := map[string]func(f *FlatMemory){
		"domain overrun":   func(f *FlatMemory) { f.Domains[1].DIMMs++ },
		"domain negative":  func(f *FlatMemory) { f.Domains[0].DIMMs, f.Domains[1].DIMMs = -1, 5 },
		"uncovered DIMM":   func(f *FlatMemory) { f.DIMMs = append(f.DIMMs, FlatDIMM{CapacityBytes: 1}) },
		"cell overrun":     func(f *FlatMemory) { f.DIMMs[3].Cells++ },
		"cell negative":    func(f *FlatMemory) { f.DIMMs[0].Cells, f.DIMMs[1].Cells = -1, f.DIMMs[1].Cells+f.DIMMs[0].Cells+1 },
		"uncovered cells":  func(f *FlatMemory) { f.Cells = append(f.Cells, WeakCell{}) },
		"vrt overrun":      func(f *FlatMemory) { f.DIMMs[3].VRT++ },
		"vrt outside DIMM": func(f *FlatMemory) { f.VRT[0] = f.DIMMs[0].Cells },
		"negative vrt":     func(f *FlatMemory) { f.VRT[0] = -1 },
		"no capacity":      func(f *FlatMemory) { f.DIMMs[2].CapacityBytes = 0 },
	}
	for name, brk := range breaks {
		_, g := sharedSystem(t)
		brk(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: broken image accepted", name)
		}
	}
}

// TestCellSlabGobRoundTrip: the binary cell records decode to the
// same cells, and malformed record streams are refused.
func TestCellSlabGobRoundTrip(t *testing.T) {
	_, f := sharedSystem(t)
	b, err := f.Cells.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var got CellSlab
	if err := got.GobDecode(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f.Cells) {
		t.Fatal("cells changed across the round trip")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		t.Fatal(err)
	}
	var g FlatMemory
	if err := gob.NewDecoder(&buf).Decode(&g); err != nil {
		t.Fatal(err)
	}
	if digest(&g) != digest(f) {
		t.Fatal("image slabs changed across a gob round trip")
	}
	if err := got.GobDecode(b[:len(b)-1]); err == nil {
		t.Fatal("partial record accepted")
	}
	if err := got.GobDecode(append(b, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	one, _ := CellSlab{{Offset: 5, RetentionSec: 1}}.GobEncode() // count, 16 bytes, flags
	one[17] |= 0x80
	if err := got.GobDecode(one); err == nil {
		t.Fatal("unknown flag bits accepted")
	}
}
