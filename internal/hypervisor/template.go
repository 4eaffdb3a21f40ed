package hypervisor

import (
	"errors"
	"fmt"

	"uniserver/internal/dram"
)

// StampFrom overwrites h with a copy of src rebound to mem, reusing
// h's allocator and map storage; the object inventory is shared with
// src until h first writes it (ObjectMap.CopyFrom). It is the arena
// form of Clone: src must be quiescent (a restore template's proto
// hypervisor, which nothing ever runs again), h must be owned
// exclusively by the caller, and afterwards h's error handling and
// guest churn leave src untouched exactly as a Clone's would.
func (h *Hypervisor) StampFrom(src *Hypervisor, mem *dram.MemorySystem) error {
	if mem == nil {
		return errors.New("hypervisor: StampFrom needs a memory system")
	}
	h.cfg = src.cfg
	h.mem = mem
	if h.objects == nil {
		h.objects = &ObjectMap{}
	}
	h.objects.CopyFrom(src.objects)
	if h.alloc == nil {
		h.alloc = dram.NewAllocator(mem)
	}
	if err := h.alloc.StampFrom(src.alloc, mem); err != nil {
		return fmt.Errorf("hypervisor: rebinding allocator: %w", err)
	}

	if h.vms == nil {
		h.vms = make(map[string]*VM, len(src.vms))
	} else {
		clear(h.vms)
	}
	for name, vm := range src.vms {
		cp := *vm
		h.vms[name] = &cp
	}

	if h.pins == nil {
		h.pins = newPinner(src.pins.oversub)
	}
	h.pins.stampFrom(src.pins)

	h.point = src.point

	if h.isolatedCores == nil {
		h.isolatedCores = make(map[int]bool, len(src.isolatedCores))
	} else {
		clear(h.isolatedCores)
	}
	for c, v := range src.isolatedCores {
		h.isolatedCores[c] = v
	}

	if h.errorCounts == nil {
		h.errorCounts = make(map[string]int, len(src.errorCounts))
	} else {
		clear(h.errorCounts)
	}
	for comp, n := range src.errorCounts {
		h.errorCounts[comp] = n
	}

	h.stats = src.stats
	h.panicked = src.panicked
	return nil
}

// CopyFrom makes om an inventory equal to src's, by reference: om's
// Objects aliases src's object slice (capacity-clamped) and om is
// marked shared until its first write, when Protect or ProtectObjects
// copies the objects into the slice om owned before (unshare). The
// arena form of Clone, without the bulk copy of the 16k-object
// inventory that no runtime window writes. src must never be written
// again — a restore template's proto inventory — which is what makes
// concurrent aliasing from many workers race-free. The category
// profiles are immutable after construction and are shared outright.
func (om *ObjectMap) CopyFrom(src *ObjectMap) {
	if !om.shared {
		om.spare = om.Objects[:0]
	}
	om.Objects = src.Objects[:len(src.Objects):len(src.Objects)]
	om.shared = true
	om.profiles = src.profiles
}

// stampFrom overwrites p with a deep copy of src, reusing p's map
// storage.
func (p *pinner) stampFrom(src *pinner) {
	p.oversub = src.oversub
	if p.load == nil {
		p.load = make(map[int]int, len(src.load))
	} else {
		clear(p.load)
	}
	for c, n := range src.load {
		p.load[c] = n
	}
	if p.byVM == nil {
		p.byVM = make(map[string][]int, len(src.byVM))
	} else {
		clear(p.byVM)
	}
	for vm, cores := range src.byVM {
		p.byVM[vm] = append([]int(nil), cores...)
	}
}
