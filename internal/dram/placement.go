package dram

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"uniserver/internal/rng"
)

// PageSize is the allocation granularity (4 KiB, as in the paper's
// Linux testbed).
const PageSize = 4096

// Criticality labels how an allocation tolerates bit errors, driving
// its domain placement.
type Criticality int

const (
	// CriticalityKernel marks kernel code and stack data: a bit error
	// here can crash the whole system, so it must live on a reliable
	// domain (the paper's isolation experiment).
	CriticalityKernel Criticality = iota
	// CriticalityHypervisor marks hypervisor state, also placed on the
	// reliable domain per Section 6.C ("placing the whole Hypervisor
	// in a reliable-memory domain can help ensure non-disruptive
	// operation with low cost").
	CriticalityHypervisor
	// CriticalityNormal marks guest/application data that can ride on
	// relaxed-refresh domains.
	CriticalityNormal
)

// String implements fmt.Stringer.
func (c Criticality) String() string {
	switch c {
	case CriticalityKernel:
		return "kernel"
	case CriticalityHypervisor:
		return "hypervisor"
	case CriticalityNormal:
		return "normal"
	default:
		return fmt.Sprintf("Criticality(%d)", int(c))
	}
}

// Allocation is a contiguous page range placed on one domain.
type Allocation struct {
	Owner       string
	Criticality Criticality
	Pages       uint64
	Domain      *Domain
}

// Bytes returns the allocation size in bytes.
func (a Allocation) Bytes() uint64 { return a.Pages * PageSize }

// Allocator places page allocations on refresh domains according to
// criticality: kernel and hypervisor allocations go to the reliable
// domain, everything else round-robins over relaxed domains.
type Allocator struct {
	ms          *MemorySystem
	allocations []Allocation
	used        map[*Domain]uint64 // bytes allocated per domain
	nextRelaxed int
}

// NewAllocator returns an allocator over the memory system.
func NewAllocator(ms *MemorySystem) *Allocator {
	return &Allocator{ms: ms, used: make(map[*Domain]uint64)}
}

// ErrOutOfMemory is returned when no domain can host an allocation.
var ErrOutOfMemory = errors.New("dram: out of memory")

// Alloc places pages for the owner. Critical allocations require a
// reliable domain; an error is returned if none exists or capacity is
// exhausted.
func (al *Allocator) Alloc(owner string, crit Criticality, pages uint64) (Allocation, error) {
	if pages == 0 {
		return Allocation{}, errors.New("dram: zero-page allocation")
	}
	var candidates []*Domain
	if crit == CriticalityKernel || crit == CriticalityHypervisor {
		rel := al.ms.ReliableDomain()
		if rel == nil {
			return Allocation{}, errors.New("dram: no reliable domain for critical allocation")
		}
		candidates = []*Domain{rel}
	} else {
		candidates = al.ms.RelaxedDomains()
		if len(candidates) == 0 {
			candidates = al.ms.Domains
		}
		// Rotate the starting candidate for round-robin spreading.
		if len(candidates) > 1 {
			start := al.nextRelaxed % len(candidates)
			candidates = append(candidates[start:], candidates[:start]...)
			al.nextRelaxed++
		}
	}
	need := pages * PageSize
	for _, dom := range candidates {
		capacity := dom.Bits() / 8
		if al.used[dom]+need <= capacity {
			al.used[dom] += need
			a := Allocation{Owner: owner, Criticality: crit, Pages: pages, Domain: dom}
			al.allocations = append(al.allocations, a)
			return a, nil
		}
	}
	return Allocation{}, fmt.Errorf("%w: %d pages for %q", ErrOutOfMemory, pages, owner)
}

// Free releases every allocation of the owner and returns the number
// of allocations removed.
func (al *Allocator) Free(owner string) int {
	kept := al.allocations[:0]
	removed := 0
	for _, a := range al.allocations {
		if a.Owner == owner {
			al.used[a.Domain] -= a.Bytes()
			removed++
			continue
		}
		kept = append(kept, a)
	}
	al.allocations = kept
	return removed
}

// UsedBytes returns the bytes allocated on the domain.
func (al *Allocator) UsedBytes(dom *Domain) uint64 { return al.used[dom] }

// Owners returns the distinct owners with live allocations, sorted.
func (al *Allocator) Owners() []string {
	set := map[string]bool{}
	for _, a := range al.allocations {
		set[a.Owner] = true
	}
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// AllocationsOf returns the owner's allocations.
func (al *Allocator) AllocationsOf(owner string) []Allocation {
	var out []Allocation
	for _, a := range al.allocations {
		if a.Owner == owner {
			out = append(out, a)
		}
	}
	return out
}

// ExposureReport quantifies how a refresh-relaxation campaign would
// impact each owner: the expected bit errors per refresh window
// landing in the owner's pages.
type ExposureReport struct {
	Owner          string
	Criticality    Criticality
	Bytes          uint64
	Domain         string
	Refresh        time.Duration
	ExpectedErrors float64
}

// Exposure computes per-allocation expected retention errors at the
// owners' current domain refresh intervals. It is how the hypervisor
// reasons about whether a placement is safe before committing to a
// relaxed refresh interval.
func (al *Allocator) Exposure() []ExposureReport {
	var out []ExposureReport
	for _, a := range al.allocations {
		p := al.ms.Model.FailProb(a.Domain.Refresh, al.ms.TempC) / 2 // pattern exposure
		bits := float64(a.Bytes() * 8)
		out = append(out, ExposureReport{
			Owner:          a.Owner,
			Criticality:    a.Criticality,
			Bytes:          a.Bytes(),
			Domain:         a.Domain.Name,
			Refresh:        a.Domain.Refresh,
			ExpectedErrors: bits * p,
		})
	}
	return out
}

// SimulateWindow samples the retention errors striking each owner over
// one refresh window at current settings, returning errors per owner.
// Owners on reliable domains see zero errors at nominal refresh by
// construction; a kernel owner placed on a relaxed domain is exactly
// the crash risk the paper's domain isolation removes.
func (al *Allocator) SimulateWindow(src *rng.Source) map[string]int {
	out := make(map[string]int)
	al.SimulateWindowInto(src, out)
	return out
}

// SimulateWindowInto is SimulateWindow writing into a caller-owned map
// (not cleared first), so a per-window stepper can reuse one scratch
// map for the whole deployment instead of allocating every window. The
// per-bit failure probability is a function of (domain refresh, system
// temperature) only, so it is evaluated once per domain rather than
// once per allocation; the Binomial draws consume the stream in the
// same allocation order with the same parameters as ever.
func (al *Allocator) SimulateWindowInto(src *rng.Source, out map[string]int) {
	var (
		pDom  [8]*Domain
		pVal  [8]float64
		nDoms int
	)
	probFor := func(dom *Domain) float64 {
		for i := 0; i < nDoms; i++ {
			if pDom[i] == dom {
				return pVal[i]
			}
		}
		p := al.ms.Model.FailProb(dom.Refresh, al.ms.TempC) / 2
		if nDoms < len(pDom) {
			pDom[nDoms], pVal[nDoms] = dom, p
			nDoms++
		}
		return p
	}
	for _, a := range al.allocations {
		n := src.Binomial(int(a.Bytes()*8), probFor(a.Domain))
		if n > 0 {
			out[a.Owner] += n
		}
	}
}
