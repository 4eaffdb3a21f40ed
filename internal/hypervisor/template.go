package hypervisor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"uniserver/internal/dram"
	"uniserver/internal/vfr"
)

// Image is the snapshot form of a hypervisor without guests and
// without runtime error state: the object inventory, the memory
// placements (domains by index) and the operating point. The host's
// configuration is not part of it; the stamp takes it from its caller.
// An image is immutable once taken: stamped hypervisors alias its
// objects until their first protection call. Its exported fields are
// the head a snapshot encodes with gob; the object inventory is
// unexported and encodes as a fixed-width column (AppendColumns).
type Image struct {
	objects  []Object
	Profiles []CategoryProfile
	Alloc    dram.AllocatorImage
	Point    vfr.Point
}

// Image captures the hypervisor, which must host no guests — guests
// are the cloud layer's, and no ecosystem places any — and must not
// have masked an error or isolated a core: a stamp starts with no
// runtime error state. The image takes the object inventory
// copy-on-write: it aliases h's objects, and h's next Protect or
// ProtectObjects copies them first (ObjectMap.lend), so h may keep
// running and the image never changes. It shares nothing else that h
// writes.
func (h *Hypervisor) Image() (Image, error) {
	if len(h.vms) > 0 {
		return Image{}, fmt.Errorf("hypervisor: cannot image a host with %d guests", len(h.vms))
	}
	if h.stats != (Stats{}) || len(h.isolatedCores) > 0 || len(h.errorCounts) > 0 {
		return Image{}, fmt.Errorf("hypervisor: cannot image a host with runtime error state (%+v)", h.stats)
	}
	img := Image{
		Profiles: slices.Clone(h.objects.profiles),
		Alloc:    h.alloc.Image(),
		Point:    h.point,
	}
	if len(h.objects.Objects) > 0 {
		img.objects = h.objects.lend()
	}
	return img, nil
}

// StampFrom overwrites h with the image and cfg bound to mem, reusing
// h's allocator and map storage; a zero Hypervisor is a valid
// destination. cfg is what New was given for the imaged host. The
// object inventory is shared with the image until h first writes it
// (ObjectMap.share). h must be owned exclusively by the caller, and
// afterwards its error handling and guest churn leave the image
// untouched.
func (h *Hypervisor) StampFrom(img *Image, cfg Config, mem *dram.MemorySystem) error {
	if mem == nil {
		return errors.New("hypervisor: StampFrom needs a memory system")
	}
	cfg.OversubscribeVCPU = max(cfg.OversubscribeVCPU, 1)
	h.cfg = cfg
	h.mem = mem
	if h.objects == nil {
		h.objects = &ObjectMap{}
	}
	h.objects.share(img.objects, img.Profiles)
	if h.alloc == nil {
		h.alloc = &dram.Allocator{}
	}
	if err := h.alloc.StampFrom(&img.Alloc, mem); err != nil {
		return fmt.Errorf("hypervisor: rebinding allocator: %w", err)
	}

	h.vms = emptied(h.vms)
	if h.pins == nil {
		h.pins = newPinner(cfg.OversubscribeVCPU)
	}
	h.pins.oversub = cfg.OversubscribeVCPU
	clear(h.pins.load)
	clear(h.pins.byVM)

	h.point = img.Point
	h.isolatedCores = emptied(h.isolatedCores)
	h.errorCounts = emptied(h.errorCounts)
	h.stats = Stats{}
	return nil
}

// The object inventory encodes as one column: a little-endian uint64
// count, then per object its ID as a little-endian uint64, its
// category as one byte — the index of the first profile of that
// category — its size as a little-endian uint64 and a flag byte
// (objectCrucial, objectProtected). Every value has one encoding, so a
// decoded image re-encodes to the bytes it was read from.
const (
	objectCrucial = 1 << iota
	objectProtected

	objectRecord = 8 + 1 + 8 + 1
)

// ColumnsLen returns the number of bytes AppendColumns appends.
func (img *Image) ColumnsLen() int { return 8 + objectRecord*len(img.objects) }

// AppendColumns appends the object inventory to b as a column. It
// refuses an object whose category has no profile among the first 256.
func (img *Image) AppendColumns(b []byte) ([]byte, error) {
	at := len(b)
	b = slices.Grow(b, img.ColumnsLen())[:at+img.ColumnsLen()]
	w := b[at:]
	binary.LittleEndian.PutUint64(w, uint64(len(img.objects)))
	w = w[8:]
	cat, last := -1, Category("")
	for i, o := range img.objects {
		if cat < 0 || o.Category != last {
			if cat = img.profileIndex(o.Category); cat < 0 || cat > math.MaxUint8 {
				return nil, fmt.Errorf("hypervisor: object %d has category %q, which no profile among the first 256 names", i, o.Category)
			}
			last = o.Category
		}
		r := w[i*objectRecord : (i+1)*objectRecord]
		binary.LittleEndian.PutUint64(r, uint64(o.ID))
		r[8] = byte(cat)
		binary.LittleEndian.PutUint64(r[9:], uint64(o.Bytes))
		var fl byte
		if o.Crucial {
			fl |= objectCrucial
		}
		if o.Protected {
			fl |= objectProtected
		}
		r[17] = fl
	}
	return b, nil
}

// profileIndex returns the index of c's first profile, or -1.
func (img *Image) profileIndex(c Category) int {
	return slices.IndexFunc(img.Profiles, func(p CategoryProfile) bool { return p.Category == c })
}

// DecodeColumns reads the column AppendColumns wrote from the front of
// b into an exact-size inventory of img, whose head — Profiles — is
// already decoded, and returns the bytes after it. It refuses a short
// column, an object whose ID is not its position (protection and error
// handling index objects by ID), a category that is not the first
// profile of its name and unknown flag bits.
func (img *Image) DecodeColumns(b []byte) ([]byte, error) {
	if len(b) < 8 {
		return nil, errors.New("hypervisor: object column truncated")
	}
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if n > uint64(len(b)/objectRecord) {
		return nil, fmt.Errorf("hypervisor: object column claims %d objects in %d bytes", n, len(b))
	}
	first := make([]bool, len(img.Profiles))
	for i, p := range img.Profiles {
		first[i] = img.profileIndex(p.Category) == i
	}
	if n > 0 {
		img.objects = make([]Object, n)
	}
	for i := range img.objects {
		r := b[i*objectRecord : (i+1)*objectRecord]
		if id := binary.LittleEndian.Uint64(r); id != uint64(i) {
			return nil, fmt.Errorf("hypervisor: object %d has ID %d", i, id)
		}
		cat := int(r[8])
		if cat >= len(first) || !first[cat] {
			return nil, fmt.Errorf("hypervisor: object %d names category %d of %d profiles", i, cat, len(img.Profiles))
		}
		fl := r[17]
		if fl&^(objectCrucial|objectProtected) != 0 {
			return nil, fmt.Errorf("hypervisor: object %d has unknown flags %#x", i, fl)
		}
		img.objects[i] = Object{
			ID:        i,
			Category:  img.Profiles[cat].Category,
			Bytes:     int(binary.LittleEndian.Uint64(r[9:])),
			Crucial:   fl&objectCrucial != 0,
			Protected: fl&objectProtected != 0,
		}
	}
	return b[int(n)*objectRecord:], nil
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

// lend returns om's objects for an image to keep, capacity-clamped,
// and marks om shared, so its next write copies them (unshare) rather
// than write through to the image. An owned om gives its slice up; a
// stamped one lends the image slice it aliases and keeps its spare.
func (om *ObjectMap) lend() []Object {
	om.shared = true
	return om.Objects[:len(om.Objects):len(om.Objects)]
}
