// Package hypervisor implements the error-resilient, KVM-style
// symmetric hypervisor of Section 4.A: it gives VMs a reliable virtual
// execution environment on top of potentially unreliable hardware by
// (a) choosing safe extended operating points, (b) masking errors from
// upper layers, (c) isolating processing and memory resources with
// high error rates, and (d) protecting its own critical state through
// criticality-driven selective checkpointing, guided by the fault-
// injection characterization of Section 6.C.
package hypervisor

import (
	"fmt"

	"uniserver/internal/rng"
)

// Category labels a group of statically allocated hypervisor objects
// by subsystem, matching the x-axis of Figure 4 (plus "net", which the
// paper's text calls out as sensitive alongside fs and kernel).
type Category string

// The object categories of the fault-injection study.
const (
	CatBlock    Category = "block"
	CatDrivers  Category = "drivers"
	CatFS       Category = "fs"
	CatInit     Category = "init"
	CatKernel   Category = "kernel"
	CatMM       Category = "mm"
	CatNet      Category = "net"
	CatPCI      Category = "pci"
	CatPower    Category = "power"
	CatSecurity Category = "security"
	CatVDSO     Category = "vdso"
)

// Categories returns all categories in display order.
func Categories() []Category {
	return []Category{CatBlock, CatDrivers, CatFS, CatInit, CatKernel,
		CatMM, CatNet, CatPCI, CatPower, CatSecurity, CatVDSO}
}

// CategoryProfile captures how one subsystem's objects behave under
// fault injection: how many objects it has, what fraction are crucial
// (a corruption makes the hypervisor non-responsive if the object is
// consumed), and how likely an object is to be consumed during an
// observation window with and without VM load.
type CategoryProfile struct {
	Category Category
	// Count is the number of statically allocated objects.
	Count int
	// CrucialFrac is the fraction of objects whose corruption is fatal
	// when consumed (pointers, locks, invariant-bearing state).
	CrucialFrac float64
	// AccessLoaded/AccessUnloaded are the per-window probabilities
	// that an object is consumed, with active VMs and on an idle
	// hypervisor respectively. Load exercises the I/O and memory
	// paths roughly an order of magnitude harder (Figure 4's 10x).
	AccessLoaded, AccessUnloaded float64
	// MeanObjectBytes sizes the objects for footprint accounting.
	MeanObjectBytes int
}

// TotalObjects is the number of statically allocated hypervisor
// objects in the paper's characterization (Section 6.C).
const TotalObjects = 16820

// DefaultProfiles returns the category profiles calibrated so that a
// Figure 4-style campaign reproduces the paper's shape: fs, kernel and
// net dominate the failures, load amplifies failures by roughly an
// order of magnitude, and the sensitive categories are the same with
// and without load. Counts sum to TotalObjects.
func DefaultProfiles() []CategoryProfile {
	return []CategoryProfile{
		{CatBlock, 600, 0.40, 0.45, 0.050, 192},
		{CatDrivers, 5200, 0.20, 0.10, 0.012, 256},
		{CatFS, 2400, 0.50, 0.55, 0.050, 224},
		{CatInit, 300, 0.10, 0.02, 0.010, 128},
		{CatKernel, 3000, 0.45, 0.35, 0.040, 320},
		{CatMM, 1200, 0.40, 0.30, 0.030, 288},
		{CatNet, 2200, 0.45, 0.40, 0.035, 240},
		{CatPCI, 500, 0.15, 0.05, 0.010, 160},
		{CatPower, 350, 0.15, 0.06, 0.015, 96},
		{CatSecurity, 570, 0.20, 0.10, 0.020, 144},
		{CatVDSO, 500, 0.08, 0.03, 0.010, 64},
	}
}

// Object is one statically allocated hypervisor object.
type Object struct {
	ID       int
	Category Category
	Bytes    int
	// Crucial is the object's ground-truth sensitivity: corrupting it
	// and consuming it makes the hypervisor non-responsive. The
	// fault-injection campaign estimates this label empirically.
	Crucial bool
	// Protected marks objects covered by the selective-protection
	// mechanism (checked and restored from checkpoints).
	Protected bool
}

// ObjectMap is the hypervisor's statically allocated object inventory.
// Only this package may write Objects: a stamped inventory aliases a
// snapshot image's (share) until Protect or ProtectObjects gives it a
// private copy.
type ObjectMap struct {
	Objects []Object
	// profiles is written only while the inventory is built and is
	// shared read-only by stamped copies.
	profiles []CategoryProfile

	// shared marks Objects as aliasing a snapshot image's slice; spare
	// is the slice om owned before, which unshare copies into.
	shared bool
	spare  []Object
}

// unshare gives a stamped inventory a private copy of its objects
// before its first write. A no-op on owned inventories.
func (om *ObjectMap) unshare() {
	if !om.shared {
		return
	}
	om.Objects = append(om.spare[:0], om.Objects...)
	om.spare = nil
	om.shared = false
}

// NewObjectMap fabricates the object inventory from the profiles.
func NewObjectMap(profiles []CategoryProfile, src *rng.Source) *ObjectMap {
	om := &ObjectMap{profiles: append([]CategoryProfile(nil), profiles...)}
	id := 0
	for _, p := range profiles {
		for i := 0; i < p.Count; i++ {
			size := int(src.Normal(float64(p.MeanObjectBytes), float64(p.MeanObjectBytes)/4))
			if size < 8 {
				size = 8
			}
			om.Objects = append(om.Objects, Object{
				ID:       id,
				Category: p.Category,
				Bytes:    size,
				Crucial:  src.Bernoulli(p.CrucialFrac),
			})
			id++
		}
	}
	return om
}

// Profile returns the category profile.
func (om *ObjectMap) Profile(c Category) (CategoryProfile, error) {
	p, ok := om.profile(c)
	if !ok {
		return CategoryProfile{}, fmt.Errorf("hypervisor: unknown category %q", c)
	}
	return p, nil
}

// profile finds c's profile; a linear scan, since an inventory has a
// dozen categories.
func (om *ObjectMap) profile(c Category) (CategoryProfile, bool) {
	for _, p := range om.profiles {
		if p.Category == c {
			return p, true
		}
	}
	return CategoryProfile{}, false
}

// Len returns the number of objects.
func (om *ObjectMap) Len() int { return len(om.Objects) }

// StaticBytes returns the total size of the statically allocated
// objects (part of the hypervisor's base footprint).
func (om *ObjectMap) StaticBytes() uint64 {
	var total uint64
	for _, o := range om.Objects {
		total += uint64(o.Bytes)
	}
	return total
}

// CountByCategory returns the object count per category.
func (om *ObjectMap) CountByCategory() map[Category]int {
	out := make(map[Category]int)
	for _, o := range om.Objects {
		out[o.Category]++
	}
	return out
}

// AccessProb returns the per-window consumption probability for an
// object of category c under the given load condition.
func (om *ObjectMap) AccessProb(c Category, loaded bool) float64 {
	p, ok := om.profile(c)
	if !ok {
		return 0
	}
	if loaded {
		return p.AccessLoaded
	}
	return p.AccessUnloaded
}

// Protect marks every object in the given categories as protected and
// returns the number of objects covered.
func (om *ObjectMap) Protect(categories ...Category) int {
	set := make(map[Category]bool, len(categories))
	for _, c := range categories {
		set[c] = true
	}
	om.unshare()
	n := 0
	for i := range om.Objects {
		if set[om.Objects[i].Category] && !om.Objects[i].Protected {
			om.Objects[i].Protected = true
			n++
		}
	}
	return n
}

// ProtectObjects marks the specific object IDs as protected.
func (om *ObjectMap) ProtectObjects(ids []int) int {
	om.unshare()
	n := 0
	for _, id := range ids {
		if id >= 0 && id < len(om.Objects) && !om.Objects[id].Protected {
			om.Objects[id].Protected = true
			n++
		}
	}
	return n
}

// ProtectedBytes returns the checkpoint footprint: the bytes of all
// protected objects (the cost of selective protection).
func (om *ObjectMap) ProtectedBytes() uint64 {
	var total uint64
	for _, o := range om.Objects {
		if o.Protected {
			total += uint64(o.Bytes)
		}
	}
	return total
}
