package dram

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"
)

// FlatMemory is the snapshot image of a MemorySystem: every DIMM's
// weak cells (their tail-uniform bits) and VRT index, and the DIMMs'
// telegraph bitsets concatenated into one slab, in
// domain order, each domain and DIMM recording how many entries of the
// next level it owns (a DIMM with v VRT cells owns ⌈v/8⌉ bitset bytes,
// bit j%8 of byte j/8 holding VRT cell j's state). It is built once
// per snapshot (Flatten), which aliases the cells and copies only the
// bitsets, and stamped into arena memory systems (StampInto), whose
// DIMMs alias it in turn. A FlatMemory is immutable after Flatten and
// safe for concurrent StampInto calls — and concurrent reads through
// the stamped DIMMs — from many workers. Its exported fields are the
// head a snapshot encodes with gob; the rest is unexported and encodes
// as fixed-width columns (AppendColumns).
type FlatMemory struct {
	Model   RetentionModel
	TempC   float64
	Domains []FlatDomain
	DIMMs   []FlatDIMM
	weak    [][]uint64 // by DIMM
	vrt     [][]int    // by DIMM
	low     []byte
}

// FlatDomain is one refresh domain of a FlatMemory, owning the next
// DIMMs entries of FlatMemory.DIMMs.
type FlatDomain struct {
	Name     string
	Refresh  time.Duration
	Reliable bool
	DIMMs    int
}

// FlatDIMM is one DIMM of a FlatMemory: it has Cells weak cells, VRT
// of them VRT cells, and owns the next ⌈VRT/8⌉ bytes of the telegraph
// bitset.
type FlatDIMM struct {
	CapacityBytes uint64
	DeviceGb      int
	Cells, VRT    int
}

// lowBytes is the length of the telegraph bitset of v VRT cells.
func lowBytes(v int) int { return (v + 7) / 8 }

// Flatten takes the memory system's snapshot image. Cells are never
// written once appended, so the image aliases each DIMM's cells and
// VRT index (capacity-clamped) and marks them shared, exactly as a
// stamp does: ms may keep running, and its next growth copies them
// first. The telegraph bitsets, which ms keeps writing, are copied,
// with every deferred toggle applied: an image holds only materialized
// state, never a log or a candidate list. ms must not be mutated
// concurrently.
func (ms *MemorySystem) Flatten() *FlatMemory {
	f := &FlatMemory{Model: ms.Model, TempC: ms.TempC}
	for _, dom := range ms.Domains {
		f.Domains = append(f.Domains, FlatDomain{Name: dom.Name, Refresh: dom.Refresh, Reliable: dom.Reliable, DIMMs: len(dom.DIMMs)})
		for _, d := range dom.DIMMs {
			n, v := len(d.weak), len(d.vrt)
			f.DIMMs = append(f.DIMMs, FlatDIMM{CapacityBytes: d.CapacityBytes, DeviceGb: d.DeviceGb, Cells: n, VRT: v})
			f.weak = append(f.weak, clamped(d.weak, n))
			f.vrt = append(f.vrt, clamped(d.vrt, v))
			d.cellsShared = true
			lo := len(f.low)
			f.low = append(f.low, d.low...)
			d.foldInto(f.low[lo:])
		}
	}
	return f
}

// Validate reports an image whose counts do not match its DIMMs' cells
// and VRT indices or do not tile its bitset, whose DIMMs have no
// capacity, whose cells carry a tail uniform outside [2^-53, 1) — the
// range fabrication draws from — or whose model cannot evaluate them,
// whose VRT index does not list cells of its DIMM in strictly
// increasing order, or whose bitset has bits set past its VRT cells. A
// decoded image that passes stamps and runs without indexing outside
// its slabs, exactly as the image Flatten wrote.
func (f *FlatMemory) Validate() error {
	dimms := 0
	for _, fd := range f.Domains {
		if fd.DIMMs < 0 || fd.DIMMs > len(f.DIMMs)-dimms {
			return fmt.Errorf("dram: domain %q claims %d of the %d DIMMs left", fd.Name, fd.DIMMs, len(f.DIMMs)-dimms)
		}
		dimms += fd.DIMMs
	}
	if dimms != len(f.DIMMs) || len(f.weak) != dimms || len(f.vrt) != dimms {
		return fmt.Errorf("dram: image's domains own %d of %d DIMMs, with %d cell and %d VRT columns",
			dimms, len(f.DIMMs), len(f.weak), len(f.vrt))
	}
	tailOK := f.Model.tail().usable()
	low := 0
	for i, d := range f.DIMMs {
		us, index := f.weak[i], f.vrt[i]
		if d.CapacityBytes == 0 || d.Cells != len(us) || d.VRT != len(index) || lowBytes(d.VRT) > len(f.low)-low {
			return fmt.Errorf("dram: DIMM %d (%d bytes) claims %d of %d cells, %d of %d VRT indices and %d of %d bitset bytes left",
				i, d.CapacityBytes, d.Cells, len(us), d.VRT, len(index), lowBytes(d.VRT), len(f.low)-low)
		}
		if d.Cells > 0 && !tailOK {
			return fmt.Errorf("dram: image's retention model %+v cannot evaluate its weak cells", f.Model)
		}
		for ci, u := range us {
			if !uniformOK(u) {
				return uniformErr(i, ci, u)
			}
		}
		if err := checkIndex(i, index, d.Cells); err != nil {
			return err
		}
		low += lowBytes(d.VRT)
		if d.VRT&7 != 0 && f.low[low-1]>>(d.VRT&7) != 0 {
			return fmt.Errorf("dram: DIMM %d bitset has bits past its %d VRT cells", i, d.VRT)
		}
	}
	if low != len(f.low) {
		return fmt.Errorf("dram: image's DIMMs own %d of %d bitset bytes", low, len(f.low))
	}
	return nil
}

// uniformOK reports whether a cell's tail uniform lies in [2^-53, 1):
// the retention of any other u is not one fabrication can give, and a
// zero u would reach NormalQuantile's panic.
func uniformOK(u uint64) bool { return u-minU < oneU-minU }

// uniformErr returns the error that refuses a cell uniformOK rejects.
func uniformErr(dimm, cell int, u uint64) error {
	return fmt.Errorf("dram: DIMM %d cell %d has tail uniform %v outside [2^-53, 1)", dimm, cell, math.Float64frombits(u))
}

// checkIndex refuses a VRT index that does not list cells of a DIMM of
// n cells in strictly increasing order: one out of order, repeated or
// outside [0, n).
func checkIndex(dimm int, index []int, n int) error {
	prev := -1
	for _, i := range index {
		if i <= prev || i >= n {
			return fmt.Errorf("dram: DIMM %d VRT index lists cell %d after cell %d; it must rise strictly below %d", dimm, i, prev, n)
		}
		prev = i
	}
	return nil
}

// StampInto overwrites ms with the image; a zero MemorySystem is a
// valid destination. It reuses ms's Domain and DIMM objects when the
// shape matches (it always does when an arena is re-stamped from
// snapshots of the same spec), and otherwise builds a fresh domain
// graph. Domain pointer identity is preserved across same-shape
// stamps, which lets an Allocator stamped alongside keep its
// per-domain usage map keys stable.
//
// Nothing is copied: each DIMM's cells and VRT index alias the
// image's, and its telegraph bitset a capacity-clamped extent of the
// image's bitset slab. Pattern
// tests and toggles never write the cells or the index (a candidate's
// evaluated retention lives in the DIMM's own candidate list); Grow
// copies them into the DIMM's own buffers before it appends. The
// bitset is copied on its first write (own). So the slabs are never
// written and any number of workers may stamp from and read them
// concurrently. The buffers a DIMM owned before the stamp are kept for
// those copies, and the derived candidate list and toggle log keep
// their storage, so a warm arena allocates nothing.
func (f *FlatMemory) StampInto(ms *MemorySystem) {
	ms.Model = f.Model
	ms.TempC = f.TempC
	if !f.shapeMatches(ms) {
		ms.Domains = make([]*Domain, len(f.Domains))
		for di, fd := range f.Domains {
			dom := &Domain{DIMMs: make([]*DIMM, fd.DIMMs)}
			for i := range dom.DIMMs {
				dom.DIMMs[i] = &DIMM{}
			}
			ms.Domains[di] = dom
		}
	}
	dimm, low := 0, 0
	for di, fd := range f.Domains {
		dom := ms.Domains[di]
		dom.Name, dom.Refresh, dom.Reliable = fd.Name, fd.Refresh, fd.Reliable
		for _, d := range dom.DIMMs {
			fdim := f.DIMMs[dimm]
			n := lowBytes(fdim.VRT)
			d.CapacityBytes, d.DeviceGb = fdim.CapacityBytes, fdim.DeviceGb
			if !d.cellsShared {
				d.spare, d.spareVRT = d.weak[:0], d.vrt[:0]
			}
			if !d.lowShared {
				d.spareLow = d.low[:0]
			}
			d.weak, d.vrt = f.weak[dimm], f.vrt[dimm]
			d.low = f.low[low : low+n : low+n]
			d.cellsShared, d.lowShared = true, true
			d.reset()
			dimm, low = dimm+1, low+n
		}
	}
}

func (f *FlatMemory) shapeMatches(ms *MemorySystem) bool {
	if len(ms.Domains) != len(f.Domains) {
		return false
	}
	for di, fd := range f.Domains {
		dom := ms.Domains[di]
		if dom == nil || len(dom.DIMMs) != fd.DIMMs || slices.Contains(dom.DIMMs, nil) {
			return false
		}
	}
	return true
}

// A FlatMemory's slabs encode as three columns, each a little-endian
// uint64 count followed by that many fixed-width little-endian values
// (snapshot format 6):
//
//	uniforms   uint64 per cell: the tail uniform u's IEEE-754 bits
//	VRT index  uint64 per VRT cell: its cell's index within its DIMM
//	bitset     the telegraph bitset's bytes
//
// A cell takes 8 bytes and a VRT cell 8 more. Retentions are not
// encoded: a stamped DIMM evaluates them from u when a pattern test
// admits the cell. Every value has one encoding — a DIMM's VRT index
// lists its cells in strictly increasing order — so a decoded image
// re-encodes to the bytes it was read from.

// counts returns the number of weak cells and VRT cells in the image.
func (f *FlatMemory) counts() (cells, vrt int) {
	for i := range f.weak {
		cells, vrt = cells+len(f.weak[i]), vrt+len(f.vrt[i])
	}
	return cells, vrt
}

// ColumnsLen returns the number of bytes AppendColumns appends.
func (f *FlatMemory) ColumnsLen() int {
	n, v := f.counts()
	return 3*8 + 8*n + 8*v + len(f.low)
}

// AppendColumns appends the image's cells, VRT indices and bitset to b
// as columns, each DIMM's entries after the previous DIMM's.
func (f *FlatMemory) AppendColumns(b []byte) []byte {
	at, size := len(b), f.ColumnsLen()
	n, v := f.counts()
	b = slices.Grow(b, size)[:at+size]
	us, w := putColumn(b[at:], n, 8)
	index, w := putColumn(w, v, 8)
	low, _ := putColumn(w, len(f.low), 1)
	for i, cells := range f.weak {
		for j, u := range cells {
			binary.LittleEndian.PutUint64(us[8*j:], u)
		}
		for j, c := range f.vrt[i] {
			binary.LittleEndian.PutUint64(index[8*j:], uint64(c))
		}
		us, index = us[8*len(cells):], index[8*len(f.vrt[i]):]
	}
	copy(low, f.low)
	return b
}

// putColumn writes a column's count of n at the front of w and returns
// the column's n values of width bytes and the bytes after them.
func putColumn(w []byte, n, width int) (col, rest []byte) {
	binary.LittleEndian.PutUint64(w, uint64(n))
	return w[8 : 8+n*width], w[8+n*width:]
}

// DecodeColumns reads the columns AppendColumns wrote from the front
// of b into exact-size slabs, which f's DIMMs then own in turn, f's
// head — Domains and DIMMs — being already decoded, and returns the
// bytes after them. It refuses a count that disagrees with the head's
// DIMMs, a short column, a tail uniform outside [2^-53, 1) and a VRT
// index that does not list its DIMM's cells in strictly increasing
// order; Validate checks the rest.
func (f *FlatMemory) DecodeColumns(b []byte) ([]byte, error) {
	// A cell or a VRT cell takes at least 8 bytes, so counts summing
	// past len(b) are short columns — and the sums cannot overflow.
	n, vrt, low := 0, 0, 0
	for i, d := range f.DIMMs {
		if d.Cells < 0 || d.VRT < 0 || d.Cells > len(b)-n || d.VRT > len(b)-vrt {
			return nil, fmt.Errorf("dram: DIMM %d claims %d cells and %d VRT cells of a %d-byte image", i, d.Cells, d.VRT, len(b))
		}
		n, vrt, low = n+d.Cells, vrt+d.VRT, low+lowBytes(d.VRT)
	}
	us, b, err := column(b, "tail-uniform", n, 8)
	if err != nil {
		return nil, err
	}
	indices, b, err := column(b, "VRT index", vrt, 8)
	if err != nil {
		return nil, err
	}
	bits, b, err := column(b, "bitset", low, 1)
	if err != nil {
		return nil, err
	}
	all, index := make([]uint64, n), make([]int, vrt)
	f.weak, f.vrt, f.low = make([][]uint64, len(f.DIMMs)), make([][]int, len(f.DIMMs)), nil
	if low > 0 {
		f.low = slices.Clone(bits)
	}
	ci, vi := 0, 0
	for di, d := range f.DIMMs {
		for i := range d.Cells {
			u := binary.LittleEndian.Uint64(us[8*(ci+i):])
			if !uniformOK(u) {
				return nil, uniformErr(di, i, u)
			}
			all[ci+i] = u
		}
		for j := range d.VRT {
			// Clamped to the DIMM's cell count, which checkIndex refuses.
			index[vi+j] = int(min(binary.LittleEndian.Uint64(indices[8*(vi+j):]), uint64(d.Cells)))
		}
		if err := checkIndex(di, index[vi:vi+d.VRT], d.Cells); err != nil {
			return nil, err
		}
		f.weak[di], f.vrt[di] = clamped(all[ci:], d.Cells), clamped(index[vi:], d.VRT)
		ci, vi = ci+d.Cells, vi+d.VRT
	}
	return b, nil
}

// column reads a column of n values of width bytes from the front of
// b, refusing any other count and a short column, and returns the
// values and the bytes after them.
func column(b []byte, name string, n, width int) (col, rest []byte, err error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("dram: %s column truncated", name)
	}
	if got := binary.LittleEndian.Uint64(b); got != uint64(n) {
		return nil, nil, fmt.Errorf("dram: %s column holds %d values, the head %d", name, got, n)
	}
	if n > (len(b)-8)/width {
		return nil, nil, fmt.Errorf("dram: %s column truncated", name)
	}
	return b[8 : 8+n*width], b[8+n*width:], nil
}

// AllocatorImage is an Allocator's snapshot form, naming each domain
// by its index in the memory system instead of by pointer, so the
// image holds no reference into the source system. Per-domain usage
// is the sum of the domain's allocations, so it is not stored.
type AllocatorImage struct {
	Allocations []AllocationImage
	NextRelaxed int
}

// AllocationImage is one Allocation of an AllocatorImage.
type AllocationImage struct {
	Owner       string
	Criticality Criticality
	Pages       uint64
	Domain      int // index in the memory system's Domains
}

// Image captures the allocator.
func (al *Allocator) Image() AllocatorImage {
	img := AllocatorImage{Allocations: make([]AllocationImage, len(al.allocations)), NextRelaxed: al.nextRelaxed}
	for i, a := range al.allocations {
		img.Allocations[i] = AllocationImage{Owner: a.Owner, Criticality: a.Criticality, Pages: a.Pages,
			Domain: slices.Index(al.ms.Domains, a.Domain)}
	}
	return img
}

// Validate reports an image that names a domain a memory system of
// the given domain count does not have.
func (img *AllocatorImage) Validate(domains int) error {
	for _, a := range img.Allocations {
		if a.Domain < 0 || a.Domain >= domains {
			return fmt.Errorf("dram: allocation %q names domain %d of %d", a.Owner, a.Domain, domains)
		}
	}
	return nil
}

// StampFrom overwrites al with the image bound to ms, reusing al's
// allocation slice and usage-map storage; a zero Allocator is a valid
// destination.
func (al *Allocator) StampFrom(img *AllocatorImage, ms *MemorySystem) error {
	if err := img.Validate(len(ms.Domains)); err != nil {
		return err
	}
	al.ms = ms
	al.nextRelaxed = img.NextRelaxed
	clear(al.screens) // drop the old domains, which may belong to another system
	al.screens = al.screens[:0]
	al.allocations = al.allocations[:0]
	if al.used == nil {
		al.used = make(map[*Domain]uint64, len(ms.Domains))
	} else {
		clear(al.used)
	}
	for _, a := range img.Allocations {
		dom := ms.Domains[a.Domain]
		al.allocations = append(al.allocations, Allocation{Owner: a.Owner, Criticality: a.Criticality, Pages: a.Pages, Domain: dom})
		al.used[dom] += a.Pages * PageSize
	}
	return nil
}
