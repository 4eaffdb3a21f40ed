package dram

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"testing"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
)

// referenceWindow is SimulateWindowInto without the zero-draw screen:
// one Binomial(bits, FailProb/2) per allocation, in allocation order.
func referenceWindow(al *Allocator, src *rng.Source, out map[string]int) {
	for _, a := range al.allocations {
		if n := src.Binomial(int(a.Bytes()*8), al.ms.Model.FailProb(a.Domain.Refresh, al.ms.TempC)/2); n > 0 {
			out[a.Owner] += n
		}
	}
}

// windowMismatch runs one screened and one reference window from the
// same stream state and reports a difference in the hits or in the
// stream position after them, or a screened allocation whose exact
// mean bits·p lies outside (0, 2^-56] — a decision that is right only
// because the stream's next uniform was not close enough to 1. It
// also returns how many allocations the screen decided and how many
// fell through.
func windowMismatch(al *Allocator, state uint64) (screened, fellThrough int, err error) {
	got, want := map[string]int{}, map[string]int{}
	a, b := rng.FromState(state), rng.FromState(state)
	al.SimulateWindowInto(a, got)
	referenceWindow(al, b, want)
	if !maps.Equal(got, want) {
		return 0, 0, fmt.Errorf("hits %v, reference %v", got, want)
	}
	if a.State() != b.State() {
		return 0, 0, fmt.Errorf("stream at %#x, reference at %#x", a.State(), b.State())
	}
	for _, x := range al.allocations {
		bits := int(x.Bytes() * 8)
		if al.zeroDraw(x.Domain, bits, al.ms.TempC) {
			if mean := float64(bits) * al.ms.Model.FailProb(x.Domain.Refresh, al.ms.TempC) / 2; !(mean > 0 && mean <= 0x1p-56) {
				return 0, 0, fmt.Errorf("screened %d bits on %s at mean %g", bits, x.Domain.Name, mean)
			}
			screened++
		} else {
			fellThrough++
		}
	}
	return screened, fellThrough, nil
}

// windowSystem is a memory system of domains of two DIMMs each, the
// first reliable, without weak cells: the window reads only the
// domains' capacities and refresh, the model and the temperature.
func windowSystem(model RetentionModel, domains int, dimmBytes uint64) *MemorySystem {
	ms := &MemorySystem{Model: model, TempC: 45}
	for i := range domains {
		ms.Domains = append(ms.Domains, &Domain{
			Name:     fmt.Sprintf("channel%d", i),
			Refresh:  vfr.NominalRefresh,
			Reliable: i == 0,
			DIMMs:    []*DIMM{{CapacityBytes: dimmBytes}, {CapacityBytes: dimmBytes}},
		})
	}
	return ms
}

// Screen boundaries: the table's edges, one ulp either side of them,
// integer and half degrees, temperatures outside the table and the
// non-finite ones.
var (
	screenTempsC = []float64{
		-50, math.Nextafter(-50, 0), math.Nextafter(-50, -100), -50.5, -1000,
		-0.5, 0, 45, math.Nextafter(45, 0), math.Nextafter(45, 100), 50.2, 85, 120.999,
		math.Nextafter(149, 0), 149, 149.5, math.Nextafter(150, 0), 150, 1000,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	// Off (FailProb 0: no draw), nominal, the default refresh sweep and
	// its derated EOP levels, and multi-second intervals.
	screenRefreshes = []time.Duration{
		0, -time.Second, 32 * time.Millisecond, vfr.NominalRefresh, 128 * time.Millisecond,
		256 * time.Millisecond, 512 * time.Millisecond, 750 * time.Millisecond, time.Second,
		1500 * time.Millisecond, 2 * time.Second, 2500 * time.Millisecond, 3 * time.Second,
		4 * time.Second, 5 * time.Second, 10 * time.Second, 40 * time.Second, 300 * time.Second,
	}
	screenModels = []RetentionModel{
		DefaultRetentionModel(),
		{MuLog: 4, SigmaLog: 1.2, RefTempC: 30, HalvingC: 7},
		{MuLog: 9, SigmaLog: 0.3, RefTempC: 60, HalvingC: 15},
		{MuLog: 6.086, SigmaLog: 0.7524, RefTempC: 45, HalvingC: -10}, // cooler leaks faster: not screened
		{MuLog: math.NaN(), SigmaLog: 0.7524, RefTempC: 45, HalvingC: 10},
	}
)

// TestWindowScreenMatchesReference drives the screened window and the
// reference over generated allocators, temperatures, refresh intervals
// and models, requiring the same hits and the same stream position
// window by window. Between windows it changes refresh intervals
// (which must invalidate the allocator's cached tables), the model in
// place, and re-stamps the allocator onto another memory system.
func TestWindowScreenMatchesReference(t *testing.T) {
	const dimmBytes = 8 << 30
	var screened, fellThrough int
	for seed := uint64(1); seed <= 60; seed++ {
		gen := rng.New(seed)
		pick := func(n int) int { return gen.Intn(n) }
		temp := func() float64 {
			if gen.Bool() {
				return screenTempsC[pick(len(screenTempsC))]
			}
			return math.Floor(gen.Range(-60, 160)) + []float64{0, 0.5, -1e-12, 1e-12}[pick(4)]
		}
		refresh := func() time.Duration {
			if pick(4) == 0 {
				return time.Duration(gen.Intn(int(20 * time.Second)))
			}
			return screenRefreshes[pick(len(screenRefreshes))]
		}
		ms := windowSystem(screenModels[pick(len(screenModels))], 4, dimmBytes)
		al := NewAllocator(ms)
		domPages := ms.Domains[1].Bits() / 8 / PageSize
		if gen.Bool() {
			if _, err := al.Alloc("whole", CriticalityNormal, domPages); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for i := range 1 + pick(6) {
			pages := []uint64{1, 2, 1 + uint64(gen.Intn(1<<10)), 1 + uint64(gen.Intn(int(domPages/4)))}[pick(4)]
			crit := []Criticality{CriticalityKernel, CriticalityHypervisor, CriticalityNormal}[pick(3)]
			if _, err := al.Alloc(fmt.Sprintf("owner%d", i%3), crit, pages); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		check := func(what string) {
			t.Helper()
			s, f, err := windowMismatch(al, gen.Uint64())
			if err != nil {
				t.Fatalf("seed %d, %s (model %+v, %.17g °C): %v", seed, what, al.ms.Model, al.ms.TempC, err)
			}
			screened, fellThrough = screened+s, fellThrough+f
		}
		for w := range 12 {
			ms.TempC = temp()
			if w%3 == 2 {
				for _, dom := range ms.Domains[1:] {
					dom.Refresh = refresh()
				}
			}
			check(fmt.Sprintf("window %d", w))
		}
		// The same domain objects under another model.
		ms.Model = screenModels[pick(len(screenModels))]
		check("model changed in place")
		// Re-stamp the allocator onto a fresh system of another model.
		img := al.Image()
		other := windowSystem(screenModels[pick(len(screenModels))], 4, dimmBytes)
		for _, dom := range other.Domains[1:] {
			dom.Refresh = refresh()
		}
		if err := al.StampFrom(&img, other); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for w := range 4 {
			other.TempC = temp()
			check(fmt.Sprintf("stamped window %d", w))
		}
		if len(al.screens) > len(other.Domains) {
			t.Fatalf("seed %d: %d cached tables for %d domains after StampFrom", seed, len(al.screens), len(other.Domains))
		}
	}
	if screened == 0 || fellThrough == 0 {
		t.Fatalf("%d allocations screened and %d fell through; both must be exercised", screened, fellThrough)
	}
	t.Logf("%d allocations screened, %d fell through", screened, fellThrough)
}

// TestWindowScreenMemoConcurrent runs allocators on several goroutines
// through more (model, refresh) pairs than the process-wide memo holds,
// so lookups, builds and resets of the memo overlap; every window must
// still match the reference.
func TestWindowScreenMemoConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms := windowSystem(screenModels[g%2], 2, 1<<30)
			al := NewAllocator(ms)
			if _, err := al.Alloc("vm", CriticalityNormal, 1<<10); err != nil {
				t.Error(err)
				return
			}
			for i := range 2 * screenMemoCap {
				ms.TempC = float64(20 + i%60)
				ms.Domains[1].Refresh = time.Duration(1+i) * time.Millisecond
				if _, _, err := windowMismatch(al, uint64(i)); err != nil {
					t.Errorf("goroutine %d, window %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzWindowScreen makes TestWindowScreenMatchesReference's check on
// one relaxed allocation of any size (zero pages and sizes whose bit
// count overflows included) beside a one-page kernel allocation, at
// any temperature and refresh interval and from any stream state.
func FuzzWindowScreen(f *testing.F) {
	for _, tc := range []struct {
		tempC   float64
		refresh time.Duration
		pages   uint64
	}{
		{45, vfr.NominalRefresh, 1 << 18},
		{50.2, vfr.NominalRefresh, 1 << 22},
		{math.Nextafter(149, 0), 5 * time.Second, 1},
		{-50, time.Second, 1 << 20},
		{math.NaN(), vfr.NominalRefresh, 1},
		{45, 0, 1},
		{45, 2 * time.Second, 0},
	} {
		f.Add(math.Float64bits(tc.tempC), int64(tc.refresh), tc.pages, uint64(7))
	}
	ms := windowSystem(DefaultRetentionModel(), 2, 8<<30)
	al := NewAllocator(ms)
	f.Fuzz(func(t *testing.T, tempBits uint64, refreshNs int64, pages, state uint64) {
		img := AllocatorImage{Allocations: []AllocationImage{
			{Owner: "kernel", Criticality: CriticalityKernel, Pages: 1, Domain: 0},
			{Owner: "vm", Criticality: CriticalityNormal, Pages: pages, Domain: 1},
		}}
		if err := al.StampFrom(&img, ms); err != nil {
			t.Fatal(err)
		}
		ms.TempC = math.Float64frombits(tempBits)
		ms.Domains[1].Refresh = time.Duration(refreshNs)
		if _, _, err := windowMismatch(al, state); err != nil {
			t.Fatalf("%.17g °C, refresh %v, %d pages, state %#x: %v", ms.TempC, ms.Domains[1].Refresh, pages, state, err)
		}
	})
}
