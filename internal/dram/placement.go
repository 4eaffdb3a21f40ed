package dram

import (
	"errors"
	"fmt"
	"math"
	"sync"
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
	// screens caches each domain's zero-draw table (SimulateWindowInto)
	// for screenModel; StampFrom and a change of model clear it.
	screens     []domainScreen
	screenModel RetentionModel
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

// SimulateWindowInto samples the retention errors striking each owner
// over one refresh window at current settings and adds them to out,
// which it does not clear first, so a per-window stepper can reuse one
// scratch map for the whole deployment. Owners on reliable domains see
// zero errors at nominal refresh by construction; a kernel owner
// placed on a relaxed domain is exactly the crash risk the paper's
// domain isolation removes.
//
// Each allocation draws Binomial(bits, FailProb(refresh, T)/2). An
// allocation the zero-draw screen (zeroDraw) decides only skips the
// one uniform that draw would consume; every other allocation
// evaluates the per-bit failure probability, once per domain, and
// draws it.
func (al *Allocator) SimulateWindowInto(src *rng.Source, out map[string]int) {
	if al.screenModel != al.ms.Model {
		al.screens, al.screenModel = al.screens[:0], al.ms.Model
	}
	tempC := al.ms.TempC
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
		p := al.ms.Model.FailProb(dom.Refresh, tempC) / 2
		if nDoms < len(pDom) {
			pDom[nDoms], pVal[nDoms] = dom, p
			nDoms++
		}
		return p
	}
	for _, a := range al.allocations {
		bits := int(a.Bytes() * 8)
		if al.zeroDraw(a.Domain, bits, tempC) {
			src.Skip(1)
			continue
		}
		if n := src.Binomial(bits, probFor(a.Domain)); n > 0 {
			out[a.Owner] += n
		}
	}
}

// The zero-draw table covers the integer temperatures screenMinC to
// screenMinC+screenTemps−1 °C; screenMinP is the least lower bound on p
// it trusts (zeroDraw).
const (
	screenMinC  = -50
	screenTemps = 200
	screenMinP  = 0x1p-1000
)

// zeroDraw reports whether the zero-draw screen decides that
// Binomial(bits, FailProb(dom.Refresh, tempC)/2) draws one uniform and
// returns 0, so that Skip(1) reproduces it exactly.
//
// For bits > 64 and a mean bits·p below 32, Binomial is Poisson(bits·p).
// Knuth's product method computes limit = exp(−mean) and returns 0 on
// the first uniform ≤ limit. Float64 is at most 1−2^-53, and for
// 0 < mean ≤ 2^-56 the exact exp(−mean) lies in [1−2^-56, 1), so any
// exp within one ulp — Go's pure-Go exp documents an error below one
// ulp, and on amd64 it rounds to exactly 1 — gives limit ≥ 1−2^-53:
// the draw is one consumed Uint64 and a 0, whichever way the
// architecture rounds (rng.TestPoissonTinyMeanDrawsOnce pins this).
//
// FailProb rises with temperature, and screenTable[i] is FailProb/2 at
// screenMinC+i °C with a relative slack of 1e-9, far above its
// rounding. So for a temperature T in [screenMinC,
// screenMinC+screenTemps−1), entry ⌊T⌋+1 bounds p from above, and
// bits·tab[⌊T⌋+1] ≤ 2^-56 bounds the mean. Entry ⌊T⌋ bounds p from
// below, and p must be positive for Binomial to draw at all; the
// screen asks that entry to reach screenMinP, far inside the normal
// range, because FailProb's rounding is monotone only where its value
// is not subnormal. A NaN or infinite temperature is outside the
// table, and anything the table cannot decide takes the exact path.
func (al *Allocator) zeroDraw(dom *Domain, bits int, tempC float64) bool {
	if !(tempC >= screenMinC && tempC < screenMinC+screenTemps-1) || bits <= 64 {
		return false
	}
	tab := al.screenFor(dom)
	i := int(math.Floor(tempC)) - screenMinC
	return tab != nil && tab[i] >= screenMinP && float64(bits)*tab[i+1] <= 0x1p-56
}

// screenTable is one (retention model, refresh) pair's zero-draw table.
type screenTable [screenTemps]float64

// domainScreen is one domain's table, for the refresh it was built at.
type domainScreen struct {
	dom     *Domain
	refresh time.Duration
	tab     *screenTable // nil: the model is not screened
}

// screenFor returns the domain's zero-draw table at its current
// refresh, building the cache entry on the domain's first window and
// whenever its refresh has changed since (a mode change, a thermal
// fallback).
func (al *Allocator) screenFor(dom *Domain) *screenTable {
	for i := range al.screens {
		if s := &al.screens[i]; s.dom == dom {
			if s.refresh != dom.Refresh {
				s.refresh, s.tab = dom.Refresh, zeroDrawTable(al.ms.Model, dom.Refresh)
			}
			return s.tab
		}
	}
	tab := zeroDrawTable(al.ms.Model, dom.Refresh)
	al.screens = append(al.screens, domainScreen{dom: dom, refresh: dom.Refresh, tab: tab})
	return tab
}

// screenMemo holds the zero-draw tables process-wide, so each stamped
// allocator looks a table up instead of evaluating FailProb 200 times
// per domain. A fleet uses a handful of (model, refresh) pairs; the
// memo starts over when it reaches screenMemoCap, which bounds it
// whatever a caller feeds it.
var screenMemo struct {
	sync.Mutex
	m map[screenKey]*screenTable
}

type screenKey struct {
	model   RetentionModel
	refresh time.Duration
}

const screenMemoCap = 256

// zeroDrawTable returns the memoized zero-draw table of the model at
// the refresh interval, or nil for a model whose FailProb need not
// rise with temperature: one with a non-finite field (a NaN field
// would also never find its key again), a non-positive HalvingC or a
// non-positive SigmaLog.
func zeroDrawTable(m RetentionModel, refresh time.Duration) *screenTable {
	for _, v := range [...]float64{m.MuLog, m.SigmaLog, m.RefTempC, m.HalvingC} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
	}
	if m.HalvingC <= 0 || m.SigmaLog <= 0 {
		return nil
	}
	key := screenKey{m, refresh}
	screenMemo.Lock()
	defer screenMemo.Unlock()
	if tab := screenMemo.m[key]; tab != nil {
		return tab
	}
	tab := new(screenTable)
	for i := range tab {
		tab[i] = m.FailProb(refresh, float64(screenMinC+i)) / 2 * (1 + 1e-9)
	}
	if len(screenMemo.m) >= screenMemoCap || screenMemo.m == nil {
		screenMemo.m = make(map[screenKey]*screenTable)
	}
	screenMemo.m[key] = tab
	return tab
}
