package dram

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// FlatMemory is a compiled, pointer-free image of a MemorySystem: the
// weak-cell and VRT-index populations of every DIMM concatenated into
// two slabs, with per-DIMM extents recorded as index ranges. It is
// built once per restore template (Flatten) and stamped into reusable
// arena memory systems (StampInto), whose DIMMs alias the slabs until
// they first write. A FlatMemory is immutable after Flatten and safe
// for concurrent StampInto calls — and concurrent reads through the
// stamped DIMMs — from many workers.
type FlatMemory struct {
	model   RetentionModel
	tempC   float64
	domains []flatDomain
	dimms   []flatDIMM
	cells   []WeakCell // all DIMMs' Weak populations, concatenated
	vrt     []int      // all DIMMs' VRT indices, concatenated
}

type flatDomain struct {
	name           string
	refresh        time.Duration
	reliable       bool
	dimmLo, dimmHi int // extent in FlatMemory.dimms
}

type flatDIMM struct {
	capacityBytes  uint64
	deviceGb       int
	weakLo, weakHi int // extent in FlatMemory.cells
	vrtLo, vrtHi   int // extent in FlatMemory.vrt
}

// Flatten compiles the memory system into its pointer-free template
// image. The receiver must not be mutated concurrently.
func (ms *MemorySystem) Flatten() *FlatMemory {
	var nDIMMs, nCells, nVRT int
	for _, dom := range ms.Domains {
		nDIMMs += len(dom.DIMMs)
		for _, d := range dom.DIMMs {
			nCells += len(d.Weak)
			nVRT += len(d.vrt)
		}
	}
	f := &FlatMemory{
		model:   ms.Model,
		tempC:   ms.TempC,
		domains: make([]flatDomain, 0, len(ms.Domains)),
		dimms:   make([]flatDIMM, 0, nDIMMs),
		cells:   make([]WeakCell, 0, nCells),
		vrt:     make([]int, 0, nVRT),
	}
	for _, dom := range ms.Domains {
		fd := flatDomain{
			name:     dom.Name,
			refresh:  dom.Refresh,
			reliable: dom.Reliable,
			dimmLo:   len(f.dimms),
		}
		for _, d := range dom.DIMMs {
			f.dimms = append(f.dimms, flatDIMM{
				capacityBytes: d.CapacityBytes,
				deviceGb:      d.DeviceGb,
				weakLo:        len(f.cells),
				weakHi:        len(f.cells) + len(d.Weak),
				vrtLo:         len(f.vrt),
				vrtHi:         len(f.vrt) + len(d.vrt),
			})
			f.cells = append(f.cells, d.Weak...)
			f.vrt = append(f.vrt, d.vrt...)
		}
		fd.dimmHi = len(f.dimms)
		f.domains = append(f.domains, fd)
	}
	return f
}

// StampInto overwrites ms with the template image, reusing ms's
// Domain and DIMM objects when the shape matches (it always does when
// an arena is re-stamped from templates of the same spec). Domain
// pointer identity is preserved across same-shape stamps, which lets
// an Allocator stamped alongside keep its per-domain usage map keys
// stable.
//
// The weak-cell populations are stamped by reference: each DIMM's
// Weak and VRT index alias capacity-clamped extents of the template's
// slabs, and the DIMM is marked shared. The first write to a DIMM —
// a VRT toggle, a pattern test, weak-cell growth, a reindex — copies
// its extent into the DIMM's own buffer (unshare), so the slabs are
// never written and any number of workers may stamp from and read
// them concurrently. The buffer a DIMM owned before the stamp is kept
// for that copy, so a warm arena's copy-on-write allocates nothing.
func (f *FlatMemory) StampInto(ms *MemorySystem) {
	ms.Model = f.model
	ms.TempC = f.tempC
	if !f.shapeMatches(ms) {
		f.rebuild(ms)
		return
	}
	for di, fd := range f.domains {
		dom := ms.Domains[di]
		dom.Name = fd.name
		dom.Refresh = fd.refresh
		dom.Reliable = fd.reliable
		for i, fdim := range f.dimms[fd.dimmLo:fd.dimmHi] {
			d := dom.DIMMs[i]
			d.CapacityBytes = fdim.capacityBytes
			d.DeviceGb = fdim.deviceGb
			f.share(d, fdim)
		}
	}
}

// share points d's weak-cell population and VRT index at its extents
// of the template slabs. The three-index slices cap each extent at
// its own length, so even an append that bypassed unshare would
// reallocate rather than overwrite a neighbouring DIMM's cells. A
// DIMM that owned its storage parks it as the spare unshare reuses.
func (f *FlatMemory) share(d *DIMM, fdim flatDIMM) {
	if !d.shared {
		d.spareWeak, d.spareVRT = d.Weak[:0], d.vrt[:0]
	}
	d.Weak = f.cells[fdim.weakLo:fdim.weakHi:fdim.weakHi]
	d.vrt = f.vrt[fdim.vrtLo:fdim.vrtHi:fdim.vrtHi]
	d.shared = true
}

// Digest returns a sha256 over the weak-cell and VRT slabs — the
// bytes every stamped DIMM reads until its first write. Stamping and
// running any number of nodes must leave it unchanged; a changed
// digest means some writer skipped unshare.
func (f *FlatMemory) Digest() [sha256.Size]byte {
	h := sha256.New()
	// WeakCell is fixed-size, so binary.Write cannot fail on it.
	_ = binary.Write(h, binary.LittleEndian, f.cells)
	var b [8]byte
	for _, i := range f.vrt {
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		h.Write(b[:])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func (f *FlatMemory) shapeMatches(ms *MemorySystem) bool {
	if len(ms.Domains) != len(f.domains) {
		return false
	}
	for di, fd := range f.domains {
		dom := ms.Domains[di]
		if dom == nil || len(dom.DIMMs) != fd.dimmHi-fd.dimmLo {
			return false
		}
		for _, d := range dom.DIMMs {
			if d == nil {
				return false
			}
		}
	}
	return true
}

// rebuild replaces ms's domain graph wholesale — the cold path taken
// the first time an arena is stamped or when templates of different
// memory shapes share an arena.
func (f *FlatMemory) rebuild(ms *MemorySystem) {
	ms.Domains = make([]*Domain, len(f.domains))
	for di, fd := range f.domains {
		dom := &Domain{
			Name:     fd.name,
			Refresh:  fd.refresh,
			Reliable: fd.reliable,
			DIMMs:    make([]*DIMM, fd.dimmHi-fd.dimmLo),
		}
		for i, fdim := range f.dimms[fd.dimmLo:fd.dimmHi] {
			d := &DIMM{CapacityBytes: fdim.capacityBytes, DeviceGb: fdim.deviceGb}
			f.share(d, fdim)
			dom.DIMMs[i] = d
		}
		ms.Domains[di] = dom
	}
}

// StampFrom overwrites al with a copy of src rebound to ms, reusing
// al's allocation slice and usage-map storage. ms must be shaped like
// src's memory system (same domain count and order); allocations and
// usage entries are remapped positionally, exactly as CloneFor does.
func (al *Allocator) StampFrom(src *Allocator, ms *MemorySystem) error {
	if len(ms.Domains) != len(src.ms.Domains) {
		return fmt.Errorf("dram: StampFrom target has %d domains, source's system has %d",
			len(ms.Domains), len(src.ms.Domains))
	}
	al.ms = ms
	al.nextRelaxed = src.nextRelaxed
	al.allocations = append(al.allocations[:0], src.allocations...)
	for i := range al.allocations {
		nd := remapDomain(al.allocations[i].Domain, src.ms, ms)
		if nd == nil {
			return fmt.Errorf("dram: allocation %q points outside the allocator's memory system",
				al.allocations[i].Owner)
		}
		al.allocations[i].Domain = nd
	}
	if al.used == nil {
		al.used = make(map[*Domain]uint64, len(src.used))
	} else {
		clear(al.used)
	}
	for d, b := range src.used {
		nd := remapDomain(d, src.ms, ms)
		if nd == nil {
			return errors.New("dram: usage entry points outside the allocator's memory system")
		}
		al.used[nd] = b
	}
	return nil
}

// remapDomain maps a domain of from onto its positional twin in to.
// Linear scan: memory systems have a handful of domains, so this beats
// allocating a remap table on every stamp.
func remapDomain(d *Domain, from, to *MemorySystem) *Domain {
	for i, sd := range from.Domains {
		if sd == d {
			return to.Domains[i]
		}
	}
	return nil
}
