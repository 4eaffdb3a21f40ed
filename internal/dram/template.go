package dram

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"
)

// FlatMemory is the snapshot image of a MemorySystem: every DIMM's
// weak cells, VRT index and telegraph bitset concatenated into three
// slabs, in domain order, each domain and DIMM recording how many
// entries of the next level it owns (a DIMM with v VRT cells owns
// ⌈v/8⌉ bitset bytes, bit j%8 of byte j/8 holding VRT cell j's state).
// It is built once per snapshot (Flatten) and stamped into arena
// memory systems (StampInto), whose DIMMs alias the slabs. A FlatMemory
// is immutable after Flatten and safe for concurrent StampInto calls —
// and concurrent reads through the stamped DIMMs — from many workers.
// Its exported fields are the head a snapshot encodes with gob; the
// slabs are unexported and encode as fixed-width columns
// (AppendColumns).
type FlatMemory struct {
	Model   RetentionModel
	TempC   float64
	Domains []FlatDomain
	DIMMs   []FlatDIMM
	cells   []WeakCell
	vrt     []int
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

// FlatDIMM is one DIMM of a FlatMemory, owning the next Cells entries
// of the cell slab, the next VRT entries of the VRT slab and the next
// ⌈VRT/8⌉ bytes of the telegraph bitset.
type FlatDIMM struct {
	CapacityBytes uint64
	DeviceGb      int
	Cells, VRT    int
}

// lowBytes is the length of the telegraph bitset of v VRT cells.
func lowBytes(v int) int { return (v + 7) / 8 }

// Flatten copies the memory system into its snapshot image, with every
// deferred VRT toggle applied to the image's bitset: an image holds
// only materialized state, never a log or a candidate list. The image
// shares no storage with ms, so ms may keep running; ms must not be
// mutated concurrently.
func (ms *MemorySystem) Flatten() *FlatMemory {
	f := &FlatMemory{Model: ms.Model, TempC: ms.TempC}
	n := 0
	for _, dom := range ms.Domains {
		for _, d := range dom.DIMMs {
			n += len(d.Weak)
		}
	}
	if n > 0 {
		f.cells = make([]WeakCell, 0, n)
	}
	for _, dom := range ms.Domains {
		f.Domains = append(f.Domains, FlatDomain{Name: dom.Name, Refresh: dom.Refresh, Reliable: dom.Reliable, DIMMs: len(dom.DIMMs)})
		for _, d := range dom.DIMMs {
			f.DIMMs = append(f.DIMMs, FlatDIMM{CapacityBytes: d.CapacityBytes, DeviceGb: d.DeviceGb, Cells: len(d.Weak), VRT: len(d.vrt)})
			f.cells = append(f.cells, d.Weak...)
			f.vrt = append(f.vrt, d.vrt...)
			lo := len(f.low)
			f.low = append(f.low, d.low...)
			d.foldInto(f.low[lo:])
		}
	}
	return f
}

// Validate reports an image whose counts do not add up to its slabs,
// whose DIMMs have no capacity, whose cells have no positive
// retention, whose VRT index is not exactly its DIMM's cells with an
// AltRetentionSec in cell order, or whose bitset has bits set past its
// VRT cells. A decoded image that passes stamps and runs without
// indexing outside its slabs, exactly as the image Flatten wrote.
func (f *FlatMemory) Validate() error {
	dimms := 0
	for _, fd := range f.Domains {
		if fd.DIMMs < 0 || fd.DIMMs > len(f.DIMMs)-dimms {
			return fmt.Errorf("dram: domain %q claims %d of the %d DIMMs left", fd.Name, fd.DIMMs, len(f.DIMMs)-dimms)
		}
		dimms += fd.DIMMs
	}
	cells, vrt, low := 0, 0, 0
	for i, d := range f.DIMMs {
		if d.CapacityBytes == 0 || d.Cells < 0 || d.Cells > len(f.cells)-cells || d.VRT < 0 || d.VRT > len(f.vrt)-vrt ||
			lowBytes(d.VRT) > len(f.low)-low {
			return fmt.Errorf("dram: DIMM %d (%d bytes) claims %d of %d cells, %d of %d VRT indices and %d of %d bitset bytes left",
				i, d.CapacityBytes, d.Cells, len(f.cells)-cells, d.VRT, len(f.vrt)-vrt, lowBytes(d.VRT), len(f.low)-low)
		}
		index := f.vrt[vrt : vrt+d.VRT]
		k := 0
		for ci, c := range f.cells[cells : cells+d.Cells] {
			if !(c.RetentionSec > 0) {
				return fmt.Errorf("dram: DIMM %d cell %d has retention %v", i, ci, c.RetentionSec)
			}
			if c.AltRetentionSec > 0 {
				if k == len(index) || index[k] != ci {
					return fmt.Errorf("dram: DIMM %d VRT index does not list VRT cell %d in order", i, ci)
				}
				k++
			}
		}
		if k != len(index) {
			return fmt.Errorf("dram: DIMM %d VRT index lists %d stable cells", i, len(index)-k)
		}
		low += lowBytes(d.VRT)
		if d.VRT&7 != 0 && f.low[low-1]>>(d.VRT&7) != 0 {
			return fmt.Errorf("dram: DIMM %d bitset has bits past its %d VRT cells", i, d.VRT)
		}
		cells, vrt = cells+d.Cells, vrt+d.VRT
	}
	if dimms != len(f.DIMMs) || cells != len(f.cells) || vrt != len(f.vrt) || low != len(f.low) {
		return fmt.Errorf("dram: image owns %d of %d DIMMs, %d of %d cells, %d of %d VRT indices, %d of %d bitset bytes",
			dimms, len(f.DIMMs), cells, len(f.cells), vrt, len(f.vrt), low, len(f.low))
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
// Nothing is copied: each DIMM's weak cells, VRT index and telegraph
// bitset alias capacity-clamped extents of the image's slabs. Pattern
// tests and toggles never write the cells or the index; Grow copies
// them into the DIMM's own buffers before it appends. The bitset is
// copied on its first write (own). So the slabs are never written and
// any number of workers may stamp from and read them concurrently. The
// buffers a DIMM owned before the stamp are kept for those copies, and
// the derived candidate list and toggle log keep their storage, so a
// warm arena allocates nothing.
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
	dimm, cell, vrt, low := 0, 0, 0, 0
	for di, fd := range f.Domains {
		dom := ms.Domains[di]
		dom.Name, dom.Refresh, dom.Reliable = fd.Name, fd.Refresh, fd.Reliable
		for _, d := range dom.DIMMs {
			fdim := f.DIMMs[dimm]
			n := lowBytes(fdim.VRT)
			d.CapacityBytes, d.DeviceGb = fdim.CapacityBytes, fdim.DeviceGb
			if !d.cellsShared {
				d.spareWeak, d.spareVRT = d.Weak[:0], d.vrt[:0]
			}
			if !d.lowShared {
				d.spareLow = d.low[:0]
			}
			d.Weak = f.cells[cell : cell+fdim.Cells : cell+fdim.Cells]
			d.vrt = f.vrt[vrt : vrt+fdim.VRT : vrt+fdim.VRT]
			d.low = f.low[low : low+n : low+n]
			d.cellsShared, d.lowShared = true, true
			d.reset()
			dimm, cell, vrt, low = dimm+1, cell+fdim.Cells, vrt+fdim.VRT, low+n
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

// A FlatMemory's slabs encode as five columns, each a little-endian
// uint64 count followed by that many fixed-width little-endian values:
//
//	offsets    uint64 per cell
//	retention  uint64 per cell: RetentionSec's IEEE-754 bits
//	flags      byte per cell: flagTrueCell, flagVRT
//	short      uint64 per VRT cell, in cell order: AltRetentionSec's bits
//	bitset     the telegraph bitset's bytes
//
// The VRT index is not encoded: it is exactly the cells flagged VRT,
// and DecodeColumns derives it. Every value has one encoding, so a
// decoded image re-encodes to the bytes it was read from.
const (
	flagTrueCell = 1 << iota
	flagVRT
)

// ColumnsLen returns the number of bytes AppendColumns appends.
func (f *FlatMemory) ColumnsLen() int {
	return 5*8 + 17*len(f.cells) + 8*len(f.vrt) + len(f.low)
}

// AppendColumns appends the image's slabs to b as columns. It refuses
// a cell whose short retention is non-zero but not positive, or whose
// VRT cells disagree with the index: the columns cannot hold them.
func (f *FlatMemory) AppendColumns(b []byte) ([]byte, error) {
	at := len(b)
	b = slices.Grow(b, f.ColumnsLen())[:at+f.ColumnsLen()]
	offs, w := putColumn(b[at:], len(f.cells), 8)
	rets, w := putColumn(w, len(f.cells), 8)
	flags, w := putColumn(w, len(f.cells), 1)
	short, w := putColumn(w, len(f.vrt), 8)
	low, _ := putColumn(w, len(f.low), 1)
	k := 0
	for i, c := range f.cells {
		binary.LittleEndian.PutUint64(offs[8*i:], c.Offset)
		binary.LittleEndian.PutUint64(rets[8*i:], math.Float64bits(c.RetentionSec))
		var fl byte
		if c.TrueCell {
			fl |= flagTrueCell
		}
		if c.AltRetentionSec != 0 {
			if !(c.AltRetentionSec > 0) || k == len(f.vrt) {
				return nil, fmt.Errorf("dram: cell %d's short retention %v is not an indexed VRT cell's", i, c.AltRetentionSec)
			}
			fl |= flagVRT
			binary.LittleEndian.PutUint64(short[8*k:], math.Float64bits(c.AltRetentionSec))
			k++
		}
		flags[i] = fl
	}
	if k != len(f.vrt) {
		return nil, fmt.Errorf("dram: image has %d VRT cells and %d VRT indices", k, len(f.vrt))
	}
	copy(low, f.low)
	return b, nil
}

// putColumn writes a column's count of n at the front of w and returns
// the column's n values of width bytes and the bytes after them.
func putColumn(w []byte, n, width int) (col, rest []byte) {
	binary.LittleEndian.PutUint64(w, uint64(n))
	return w[8 : 8+n*width], w[8+n*width:]
}

// DecodeColumns reads the columns AppendColumns wrote from the front
// of b into exact-size slabs of f, whose head — Domains and DIMMs — is
// already decoded, and returns the bytes after them. It refuses a
// count that disagrees with the head's DIMMs, a short column, unknown
// flag bits and a VRT cell whose short retention is not positive;
// Validate checks the rest.
func (f *FlatMemory) DecodeColumns(b []byte) ([]byte, error) {
	// A cell takes at least 17 bytes, so counts summing past len(b)
	// are short columns — and the sums cannot overflow.
	cells, vrt, low := 0, 0, 0
	for i, d := range f.DIMMs {
		if d.Cells < 0 || d.VRT < 0 || d.Cells > len(b)-cells || d.VRT > len(b)-vrt {
			return nil, fmt.Errorf("dram: DIMM %d claims %d cells and %d VRT cells of a %d-byte image", i, d.Cells, d.VRT, len(b))
		}
		cells, vrt, low = cells+d.Cells, vrt+d.VRT, low+lowBytes(d.VRT)
	}
	offs, b, err := column(b, "offset", cells, 8)
	if err != nil {
		return nil, err
	}
	rets, b, err := column(b, "retention", cells, 8)
	if err != nil {
		return nil, err
	}
	flags, b, err := column(b, "flag", cells, 1)
	if err != nil {
		return nil, err
	}
	short, b, err := column(b, "short-retention", vrt, 8)
	if err != nil {
		return nil, err
	}
	bits, b, err := column(b, "bitset", low, 1)
	if err != nil {
		return nil, err
	}
	if cells > 0 {
		f.cells = make([]WeakCell, cells)
	}
	if vrt > 0 {
		f.vrt = make([]int, vrt)
	}
	if low > 0 {
		f.low = slices.Clone(bits)
	}
	ci, k := 0, 0
	for di, d := range f.DIMMs {
		end := k + d.VRT
		for i := range d.Cells {
			fl := flags[ci]
			if fl&^(flagTrueCell|flagVRT) != 0 {
				return nil, fmt.Errorf("dram: DIMM %d cell %d has unknown flags %#x", di, i, fl)
			}
			c := &f.cells[ci]
			c.Offset = binary.LittleEndian.Uint64(offs[8*ci:])
			c.RetentionSec = math.Float64frombits(binary.LittleEndian.Uint64(rets[8*ci:]))
			c.TrueCell = fl&flagTrueCell != 0
			if fl&flagVRT != 0 {
				if k == end {
					return nil, fmt.Errorf("dram: DIMM %d flags more than its %d VRT cells", di, d.VRT)
				}
				if c.AltRetentionSec = math.Float64frombits(binary.LittleEndian.Uint64(short[8*k:])); !(c.AltRetentionSec > 0) {
					return nil, fmt.Errorf("dram: DIMM %d VRT cell %d has short retention %v", di, i, c.AltRetentionSec)
				}
				f.vrt[k] = i
				k++
			}
			ci++
		}
		if k != end {
			return nil, fmt.Errorf("dram: DIMM %d flags %d of its %d VRT cells", di, d.VRT-(end-k), d.VRT)
		}
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
