package hypervisor

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"uniserver/internal/dram"
	"uniserver/internal/vfr"
)

// Image is the snapshot form of a hypervisor without guests: the
// object inventory, the memory placements (domains by index), the
// operating point, the isolation state and the resilience counters.
// Its maps are stored as slices sorted by key, so an image encodes to
// the same bytes every time. An image is immutable once taken: stamped
// hypervisors alias Objects until their first protection call.
type Image struct {
	Cfg         Config
	Objects     []Object
	Profiles    []CategoryProfile
	Alloc       dram.AllocatorImage
	Point       vfr.Point
	Isolated    []int        // isolated cores, ascending
	ErrorCounts []ErrorCount // sorted by component
	Stats       Stats
	Panicked    bool
}

// ErrorCount is one component's correctable-error count toward
// isolation.
type ErrorCount struct {
	Component string
	N         int
}

// Image captures the hypervisor, which must host no guests: guests are
// the cloud layer's, and no ecosystem places any. The image shares no
// storage with h, so h may keep running.
func (h *Hypervisor) Image() (Image, error) {
	if len(h.vms) > 0 {
		return Image{}, fmt.Errorf("hypervisor: cannot image a host with %d guests", len(h.vms))
	}
	img := Image{
		Cfg:      h.cfg,
		Objects:  slices.Clone(h.objects.Objects),
		Profiles: slices.Clone(h.objects.profiles),
		Alloc:    h.alloc.Image(),
		Point:    h.point,
		Stats:    h.stats,
		Panicked: h.panicked,
	}
	for _, c := range slices.Sorted(maps.Keys(h.isolatedCores)) {
		if h.isolatedCores[c] {
			img.Isolated = append(img.Isolated, c)
		}
	}
	for _, comp := range slices.Sorted(maps.Keys(h.errorCounts)) {
		img.ErrorCounts = append(img.ErrorCounts, ErrorCount{Component: comp, N: h.errorCounts[comp]})
	}
	return img, nil
}

// StampFrom overwrites h with the image bound to mem, reusing h's
// allocator and map storage; a zero Hypervisor is a valid destination.
// The object inventory is shared with the image until h first writes
// it (ObjectMap.share). h must be owned exclusively by the caller, and
// afterwards its error handling and guest churn leave the image
// untouched.
func (h *Hypervisor) StampFrom(img *Image, mem *dram.MemorySystem) error {
	if mem == nil {
		return errors.New("hypervisor: StampFrom needs a memory system")
	}
	h.cfg = img.Cfg
	h.mem = mem
	if h.objects == nil {
		h.objects = &ObjectMap{}
	}
	h.objects.share(img.Objects, img.Profiles)
	if h.alloc == nil {
		h.alloc = &dram.Allocator{}
	}
	if err := h.alloc.StampFrom(&img.Alloc, mem); err != nil {
		return fmt.Errorf("hypervisor: rebinding allocator: %w", err)
	}

	h.vms = emptied(h.vms)
	if h.pins == nil {
		h.pins = newPinner(img.Cfg.OversubscribeVCPU)
	}
	h.pins.oversub = img.Cfg.OversubscribeVCPU
	clear(h.pins.load)
	clear(h.pins.byVM)

	h.point = img.Point

	h.isolatedCores = emptied(h.isolatedCores)
	for _, c := range img.Isolated {
		h.isolatedCores[c] = true
	}

	h.errorCounts = emptied(h.errorCounts)
	for _, ec := range img.ErrorCounts {
		h.errorCounts[ec.Component] = ec.N
	}

	h.stats = img.Stats
	h.panicked = img.Panicked
	return nil
}

// emptied returns m cleared for reuse, or a new map when m is nil.
func emptied[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	clear(m)
	return m
}

// share makes om an inventory of objects, by reference: om's Objects
// aliases the slice (capacity-clamped) and om is marked shared until
// its first write, when Protect or ProtectObjects copies the objects
// into the slice om owned before (unshare). No runtime window writes
// the 16k-object inventory, so a stamp skips its bulk copy. The slice
// must never be written again — a snapshot image's — which is what
// makes concurrent aliasing from many workers race-free. The category
// profiles are immutable after construction and are shared outright.
func (om *ObjectMap) share(objects []Object, profiles []CategoryProfile) {
	if !om.shared {
		om.spare = om.Objects[:0]
	}
	om.Objects = objects[:len(objects):len(objects)]
	om.shared = true
	om.profiles = profiles
}
