package dram

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"
)

// FlatMemory is the snapshot image of a MemorySystem: every DIMM's
// weak-cell and VRT-index populations concatenated into two slabs, in
// domain order, each domain and DIMM recording how many entries of
// the next level it owns. It is built once per snapshot (Flatten) and
// stamped into arena memory systems (StampInto), whose DIMMs alias the
// slabs until they first write. A FlatMemory is immutable after
// Flatten and safe for concurrent StampInto calls — and concurrent
// reads through the stamped DIMMs — from many workers. Its fields are
// exported for encoding only.
type FlatMemory struct {
	Model   RetentionModel
	TempC   float64
	Domains []FlatDomain
	DIMMs   []FlatDIMM
	Cells   CellSlab
	VRT     []int
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
// of the cell slab and the next VRT entries of the VRT slab.
type FlatDIMM struct {
	CapacityBytes uint64
	DeviceGb      int
	Cells, VRT    int
}

// Flatten copies the memory system into its snapshot image. The image
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
	f.Cells = make(CellSlab, 0, n)
	for _, dom := range ms.Domains {
		f.Domains = append(f.Domains, FlatDomain{Name: dom.Name, Refresh: dom.Refresh, Reliable: dom.Reliable, DIMMs: len(dom.DIMMs)})
		for _, d := range dom.DIMMs {
			f.DIMMs = append(f.DIMMs, FlatDIMM{CapacityBytes: d.CapacityBytes, DeviceGb: d.DeviceGb, Cells: len(d.Weak), VRT: len(d.vrt)})
			f.Cells = append(f.Cells, d.Weak...)
			f.VRT = append(f.VRT, d.vrt...)
		}
	}
	return f
}

// Validate reports an image whose counts do not add up to its slabs,
// whose VRT indices name cells outside their own DIMM, or whose DIMMs
// have no capacity. A decoded image that passes stamps and runs
// without indexing outside its slabs.
func (f *FlatMemory) Validate() error {
	dimms := 0
	for _, fd := range f.Domains {
		if fd.DIMMs < 0 || fd.DIMMs > len(f.DIMMs)-dimms {
			return fmt.Errorf("dram: domain %q claims %d of the %d DIMMs left", fd.Name, fd.DIMMs, len(f.DIMMs)-dimms)
		}
		dimms += fd.DIMMs
	}
	cells, vrt := 0, 0
	for i, d := range f.DIMMs {
		if d.CapacityBytes == 0 || d.Cells < 0 || d.Cells > len(f.Cells)-cells || d.VRT < 0 || d.VRT > len(f.VRT)-vrt {
			return fmt.Errorf("dram: DIMM %d (%d bytes) claims %d of %d cells and %d of %d VRT indices left",
				i, d.CapacityBytes, d.Cells, len(f.Cells)-cells, d.VRT, len(f.VRT)-vrt)
		}
		for _, v := range f.VRT[vrt : vrt+d.VRT] {
			if v < 0 || v >= d.Cells {
				return fmt.Errorf("dram: DIMM %d VRT index %d outside its %d cells", i, v, d.Cells)
			}
		}
		cells, vrt = cells+d.Cells, vrt+d.VRT
	}
	if dimms != len(f.DIMMs) || cells != len(f.Cells) || vrt != len(f.VRT) {
		return fmt.Errorf("dram: image owns %d of %d DIMMs, %d of %d cells, %d of %d VRT indices",
			dimms, len(f.DIMMs), cells, len(f.Cells), vrt, len(f.VRT))
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
// The weak-cell populations are stamped by reference: each DIMM's
// Weak and VRT index alias capacity-clamped extents of the image's
// slabs, and the DIMM is marked shared. The first write to a DIMM —
// a VRT toggle, a pattern test, weak-cell growth, a reindex — copies
// its extent into the DIMM's own buffer (unshare), so the slabs are
// never written and any number of workers may stamp from and read
// them concurrently. The buffer a DIMM owned before the stamp is kept
// for that copy, so a warm arena's copy-on-write allocates nothing.
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
	dimm, cell, vrt := 0, 0, 0
	for di, fd := range f.Domains {
		dom := ms.Domains[di]
		dom.Name, dom.Refresh, dom.Reliable = fd.Name, fd.Refresh, fd.Reliable
		for _, d := range dom.DIMMs {
			fdim := f.DIMMs[dimm]
			d.CapacityBytes, d.DeviceGb = fdim.CapacityBytes, fdim.DeviceGb
			// Capacity-clamped, so even an append that bypassed unshare
			// reallocates instead of overwriting a neighbour's cells; an
			// owned DIMM parks its storage as the spare unshare reuses.
			if !d.shared {
				d.spareWeak, d.spareVRT = d.Weak[:0], d.vrt[:0]
			}
			d.Weak = f.Cells[cell : cell+fdim.Cells : cell+fdim.Cells]
			d.vrt = f.VRT[vrt : vrt+fdim.VRT : vrt+fdim.VRT]
			d.shared = true
			dimm, cell, vrt = dimm+1, cell+fdim.Cells, vrt+fdim.VRT
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

// CellSlab is a weak-cell slab that encodes as binary records instead
// of gob's per-field form: a snapshot's cells are most of its bytes.
// The slab is a uvarint count, then per cell the offset and the
// retention time's IEEE-754 bits as little-endian uint64s, a flag
// byte, and the short retention time's bits for VRT cells only.
type CellSlab []WeakCell

const (
	flagTrueCell = 1 << iota
	flagLowState
	flagVRT // AltRetentionSec follows
)

// GobEncode implements gob.GobEncoder.
func (s CellSlab) GobEncode() ([]byte, error) {
	b := binary.AppendUvarint(make([]byte, 0, 18*len(s)+binary.MaxVarintLen64), uint64(len(s)))
	for _, c := range s {
		b = binary.LittleEndian.AppendUint64(b, c.Offset)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.RetentionSec))
		var flags byte
		if c.TrueCell {
			flags |= flagTrueCell
		}
		if c.LowState {
			flags |= flagLowState
		}
		if c.AltRetentionSec != 0 {
			flags |= flagVRT
		}
		b = append(b, flags)
		if flags&flagVRT != 0 {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.AltRetentionSec))
		}
	}
	return b, nil
}

// GobDecode implements gob.GobDecoder, refusing truncated records,
// unknown flag bits and trailing bytes.
func (s *CellSlab) GobDecode(b []byte) error {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b))/17 { // a record is at least 17 bytes
		return fmt.Errorf("dram: cell slab claims %d cells in %d bytes", n, len(b))
	}
	cells := make(CellSlab, n)
	b = b[k:]
	for i := range cells {
		if len(b) < 17 {
			return fmt.Errorf("dram: cell %d truncated", i)
		}
		flags := b[16]
		if flags&^(flagTrueCell|flagLowState|flagVRT) != 0 {
			return fmt.Errorf("dram: cell %d has unknown flags %#x", i, flags)
		}
		cells[i] = WeakCell{
			Offset:       binary.LittleEndian.Uint64(b),
			RetentionSec: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			TrueCell:     flags&flagTrueCell != 0,
			LowState:     flags&flagLowState != 0,
		}
		b = b[17:]
		if flags&flagVRT != 0 {
			if len(b) < 8 {
				return fmt.Errorf("dram: cell %d truncated", i)
			}
			cells[i].AltRetentionSec = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("dram: %d bytes after the cell slab", len(b))
	}
	*s = cells
	return nil
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
