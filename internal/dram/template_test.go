package dram

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
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

// digest hashes the image's slabs — the bytes every stamped DIMM reads.
// A changed digest means some writer wrote through to the image.
func digest(f *FlatMemory) [sha256.Size]byte {
	return sha256.Sum256(f.AppendColumns(nil))
}

func stamped(f *FlatMemory) *MemorySystem {
	ms := &MemorySystem{}
	f.StampInto(ms)
	return ms
}

// within reports whether a slice's first element lies inside a slab.
func within[T any](x, slab []T) bool {
	for i := range slab {
		if &slab[i] == &x[:1][0] {
			return true
		}
	}
	return false
}

// aliases reports whether d's weak cells are one of the image's DIMMs'.
func aliases(d *DIMM, f *FlatMemory) bool {
	if d.Len() == 0 {
		return true
	}
	for _, c := range f.weak {
		if len(c) > 0 && &c[0] == &d.weak[0] {
			return true
		}
	}
	return false
}

// lowAliases reports whether d's telegraph bitset is the image's.
func lowAliases(d *DIMM, f *FlatMemory) bool {
	return len(d.low) == 0 || within(d.low, f.low)
}

// TestStampSharesUntilFirstWrite pins the copy-on-write contract of
// FlatMemory.StampInto for every mutator of a DIMM: a stamped system
// aliases the image's slabs; the weak cells stay aliased until growth
// copies them; the telegraph bitset stays aliased until its first
// write and is private after; the result is exactly what the same
// write does to a second fabrication from the same seed; and the
// image's slabs never change.
func TestStampSharesUntilFirstWrite(t *testing.T) {
	_, f := sharedSystem(t)
	before := digest(f)
	model := DefaultRetentionModel()
	// other is a second image of the same shape: re-stamping an arena
	// from it must not write through any buffer that aliases f.
	cfg := DefaultConfig()
	cfg.Channels, cfg.DIMMsPerChannel = 2, 2
	otherMS, err := New(cfg, model, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	other := otherMS.Flatten()
	otherBefore := digest(other)
	writers := []struct {
		name string
		// relaxedOnly: the writer touches only relaxed domains, so the
		// reliable domain must stay shared.
		relaxedOnly bool
		// grows: the writer appends weak cells.
		grows bool
		do    func(ms *MemorySystem)
	}{
		{"RunPatternTest", true, false, func(ms *MemorySystem) {
			for _, dom := range ms.RelaxedDomains() {
				ms.RunPatternTest(dom, rng.New(3))
			}
		}},
		{"CharacterizeRefresh", true, false, func(ms *MemorySystem) {
			if _, err := ms.CharacterizeRefresh([]time.Duration{2 * time.Second, 5 * time.Second}, 2, rng.New(4)); err != nil {
				t.Fatal(err)
			}
			s := rng.New(5)
			for _, dom := range ms.RelaxedDomains() {
				ToggleVRTCoarse(dom, 500, s)
			}
		}},
		{"ToggleVRTCoarse", false, false, func(ms *MemorySystem) {
			s := rng.New(5)
			for _, dom := range ms.Domains {
				ToggleVRTCoarse(dom, 500, s)
			}
		}},
		{"GrowWeakCells", false, true, func(ms *MemorySystem) {
			s := rng.New(6)
			for _, dom := range ms.Domains {
				GrowWeakCells(dom, 30, 50, model, s)
			}
		}},
		{"Grow", false, true, func(ms *MemorySystem) {
			for _, dom := range ms.Domains {
				for _, d := range dom.DIMMs {
					d.Grow(40, model, rng.New(7))
				}
			}
		}},
		{"Reindex", false, false, func(ms *MemorySystem) { ms.Reindex() }},
		{"ReindexRestampGrow", false, true, func(ms *MemorySystem) {
			ms.Reindex()
			other.StampInto(ms)
			for _, dom := range ms.Domains {
				for _, d := range dom.DIMMs {
					d.Grow(40, model, rng.New(8))
				}
			}
		}},
	}
	owned := 0
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			ms := stamped(f)
			for _, dom := range ms.Domains {
				for _, d := range dom.DIMMs {
					if !d.lowShared || !aliases(d, f) || !lowAliases(d, f) {
						t.Fatal("stamped DIMM does not alias the image slabs")
					}
				}
			}
			ref, _ := sharedSystem(t)
			w.do(ms)
			w.do(ref)
			for _, dom := range ms.Domains {
				for i, d := range dom.DIMMs {
					untouched := w.relaxedOnly && dom.Reliable
					if aliases(d, f) != (untouched || !w.grows) {
						t.Fatalf("domain %s DIMM %d: cells alias the image=%t after %s", dom.Name, i, aliases(d, f), w.name)
					}
					imageLow := lowAliases(d, f) || lowAliases(d, other)
					if d.lowShared != imageLow || untouched && !d.lowShared {
						t.Fatalf("domain %s DIMM %d: shared=%t, bitset aliases an image=%t after %s",
							dom.Name, i, d.lowShared, imageLow, w.name)
					}
					if !d.lowShared {
						owned++
					}
				}
			}
			if err := sameSystems(ms, ref); err != nil {
				t.Fatalf("copy-on-write result differs from a fresh fabrication's: %v", err)
			}
			if digest(f) != before || digest(other) != otherBefore {
				t.Fatalf("%s wrote through to the image slabs", w.name)
			}
		})
	}
	if owned == 0 {
		t.Fatal("no writer wrote a telegraph bitset; the copy-on-write path went unexercised")
	}
}

// sameSystems reports the first cell, VRT index entry or telegraph
// state in which two memory systems differ.
func sameSystems(a, b *MemorySystem) error {
	for di, dom := range a.Domains {
		for i, d := range dom.DIMMs {
			r := b.Domains[di].DIMMs[i]
			if !slices.Equal(d.weak, r.weak) || !slices.Equal(d.vrt, r.vrt) {
				return fmt.Errorf("domain %s DIMM %d: cells or VRT index differ", dom.Name, i)
			}
			for c := range d.Len() {
				if d.LowState(c) != r.LowState(c) {
					return fmt.Errorf("domain %s DIMM %d cell %d: telegraph state differs", dom.Name, i, c)
				}
			}
		}
	}
	return nil
}

// TestRestampAfterUnshareShares pins that a written arena, whose
// telegraph bitset and grown cells went private, goes back to aliasing
// the image on its next stamp, keeping the private buffers as the
// spares for the next copies — so a warm stamp+write cycle allocates
// nothing.
func TestRestampAfterUnshareShares(t *testing.T) {
	_, f := sharedSystem(t)
	ms := stamped(f)
	dom := ms.Domains[1]
	d := dom.DIMMs[0]
	write := func(src *rng.Source) {
		if err := dom.SetRefresh(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		ms.RunPatternTest(dom, src)
		ToggleVRTCoarse(dom, 1440, src)
		d.Grow(5, ms.Model, src)
	}
	write(rng.New(1))
	if d.lowShared || lowAliases(d, f) || d.cellsShared || aliases(d, f) {
		t.Fatal("a pattern test, a coarse toggle and growth left the DIMM shared")
	}
	private, privateCells := &d.low[0], &d.weak[0]
	f.StampInto(ms)
	if ms.Domains[1].DIMMs[0] != d {
		t.Fatal("same-shape stamp replaced the DIMM object")
	}
	if !d.lowShared || !d.cellsShared || !aliases(d, f) || !lowAliases(d, f) {
		t.Fatal("re-stamp after a write does not share the image slabs")
	}
	if &d.spareLow[:1][0] != private || &d.spare[:1][0] != privateCells {
		t.Fatal("re-stamp dropped the DIMM's private buffers")
	}
	src := rng.New(2)
	allocs := testing.AllocsPerRun(20, func() {
		f.StampInto(ms)
		write(src)
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
		"domain overrun":         func(f *FlatMemory) { f.Domains[1].DIMMs++ },
		"domain negative":        func(f *FlatMemory) { f.Domains[0].DIMMs, f.Domains[1].DIMMs = -1, 5 },
		"uncovered DIMM":         func(f *FlatMemory) { f.DIMMs = append(f.DIMMs, FlatDIMM{CapacityBytes: 1}) },
		"cell overrun":           func(f *FlatMemory) { f.DIMMs[3].Cells++ },
		"cell negative":          func(f *FlatMemory) { f.DIMMs[0].Cells, f.DIMMs[1].Cells = -1, f.DIMMs[1].Cells+f.DIMMs[0].Cells+1 },
		"uncovered cells":        func(f *FlatMemory) { f.weak[1] = append(f.weak[1], minU) },
		"uncovered DIMM cells":   func(f *FlatMemory) { f.weak = append(f.weak, nil) },
		"vrt overrun":            func(f *FlatMemory) { f.DIMMs[3].VRT++ },
		"vrt count short":        func(f *FlatMemory) { f.vrt[0] = f.vrt[0][:len(f.vrt[0])-1] },
		"vrt at Cells":           func(f *FlatMemory) { f.vrt[0][len(f.vrt[0])-1] = f.DIMMs[0].Cells },
		"negative vrt":           func(f *FlatMemory) { f.vrt[0][0] = -1 },
		"vrt out of order":       func(f *FlatMemory) { f.vrt[0][0], f.vrt[0][1] = f.vrt[0][1], f.vrt[0][0] },
		"vrt duplicate":          func(f *FlatMemory) { f.vrt[0][1] = f.vrt[0][0] },
		"uncovered vrt":          func(f *FlatMemory) { f.vrt = append(f.vrt, nil) },
		"zero uniform":           func(f *FlatMemory) { f.weak[0][2] = 0 },
		"uniform below draws":    func(f *FlatMemory) { f.weak[0][2] = minU - 1 },
		"uniform one":            func(f *FlatMemory) { f.weak[0][2] = oneU },
		"NaN uniform":            func(f *FlatMemory) { f.weak[0][2] = math.Float64bits(math.NaN()) },
		"flat tail":              func(f *FlatMemory) { f.Model.SigmaLog = 0 },
		"empty tail":             func(f *FlatMemory) { f.Model.MuLog = 1e6 },
		"tail past the low tail": func(f *FlatMemory) { f.Model.MuLog = 0 },
		"bitset overrun":         func(f *FlatMemory) { f.low = f.low[:len(f.low)-1] },
		"uncovered bitset":       func(f *FlatMemory) { f.low = append(f.low, 0) },
		"bit past VRT cells":     func(f *FlatMemory) { f.low[lowBytes(f.DIMMs[0].VRT)-1] |= 0x80 },
		"no capacity":            func(f *FlatMemory) { f.DIMMs[2].CapacityBytes = 0 },
	}
	if f.DIMMs[0].VRT%8 == 0 {
		t.Fatal("the image no longer exercises a padded bitset word")
	}
	for name, brk := range breaks {
		_, g := sharedSystem(t)
		brk(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: broken image accepted", name)
		}
	}
}

// TestFlatMemoryColumnsRoundTrip: the columns decode into the same
// slabs and re-encode to the same bytes, and every column a head's
// DIMMs cannot own is refused.
func TestFlatMemoryColumnsRoundTrip(t *testing.T) {
	_, f := sharedSystem(t)
	b := f.AppendColumns(nil)
	if len(b) != f.ColumnsLen() {
		t.Fatalf("AppendColumns wrote %d bytes, ColumnsLen says %d", len(b), f.ColumnsLen())
	}
	decode := func(b []byte) (*FlatMemory, error) {
		g := &FlatMemory{Model: f.Model, TempC: f.TempC, Domains: f.Domains, DIMMs: f.DIMMs}
		rest, err := g.DecodeColumns(b)
		if err == nil && len(rest) != 0 {
			t.Fatalf("%d bytes left after the columns", len(rest))
		}
		return g, err
	}
	g, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, f) {
		t.Fatal("image changed across the round trip")
	}
	if again := g.AppendColumns(nil); !bytes.Equal(again, b) {
		t.Fatal("decoded image re-encodes to different bytes")
	}

	// The byte offsets of each column, behind its 8-byte count.
	n, v := f.counts()
	index := 8 + 8*n
	bitset := index + 8 + 8*v
	// setIndex overwrites entry j of the first DIMM's VRT index.
	setIndex := func(b []byte, j int, i uint64) []byte { binary.LittleEndian.PutUint64(b[index+8+8*j:], i); return b }
	setU := func(b []byte, u uint64) []byte { binary.LittleEndian.PutUint64(b[8:], u); return b }
	last, cells := len(f.vrt[0])-1, uint64(f.DIMMs[0].Cells)
	breaks := map[string]func(b []byte) []byte{
		"truncated":           func(b []byte) []byte { return b[:len(b)-1] },
		"no columns":          func(b []byte) []byte { return nil },
		"cell count":          func(b []byte) []byte { b[0]++; return b },
		"vrt count high":      func(b []byte) []byte { b[index]++; return b },
		"vrt count low":       func(b []byte) []byte { b[index]--; return b },
		"bitset count":        func(b []byte) []byte { b[bitset]++; return b },
		"vrt out of order":    func(b []byte) []byte { return setIndex(setIndex(b, 0, uint64(f.vrt[0][1])), 1, uint64(f.vrt[0][0])) },
		"vrt duplicate":       func(b []byte) []byte { return setIndex(b, 1, uint64(f.vrt[0][0])) },
		"vrt at Cells":        func(b []byte) []byte { return setIndex(b, last, cells) },
		"vrt beyond int":      func(b []byte) []byte { return setIndex(b, last, math.MaxUint64) },
		"zero uniform":        func(b []byte) []byte { return setU(b, 0) },
		"uniform below draws": func(b []byte) []byte { return setU(b, minU-1) },
		"uniform one":         func(b []byte) []byte { return setU(b, oneU) },
		"NaN uniform":         func(b []byte) []byte { return setU(b, math.Float64bits(math.NaN())) },
	}
	if len(f.vrt[0]) < 2 {
		t.Fatal("the image's first DIMM no longer has two VRT cells")
	}
	for name, brk := range breaks {
		if _, err := decode(brk(bytes.Clone(b))); err == nil {
			t.Errorf("%s: broken columns accepted", name)
		}
	}
}
