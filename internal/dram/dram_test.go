package dram

import (
	"math"
	"slices"
	"testing"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
)

func TestRetentionModelCalibration(t *testing.T) {
	m := DefaultRetentionModel()
	// Paper anchor: BER ~1e-9 at 5 s in an air-conditioned room.
	p5 := m.FailProb(5*time.Second, 45)
	if p5 < 0.5e-9 || p5 > 2e-9 {
		t.Errorf("P(fail @5s) = %v, want ~1e-9", p5)
	}
	// Paper anchor: zero errors at 1.5 s in 8 GB => expected bit
	// failures in 6.4e10 bits must be well below 1.
	p15 := m.FailProb(1500*time.Millisecond, 45)
	if exp := p15 * 64e9; exp > 0.5 {
		t.Errorf("expected failures at 1.5s in 8GB = %v, want < 0.5", exp)
	}
	// Nominal 64 ms must be absurdly safe.
	if p := m.FailProb(vfr.NominalRefresh, 45); p*64e9 > 1e-6 {
		t.Errorf("nominal refresh fail mass = %v, want ~0", p*64e9)
	}
}

func TestRetentionTemperatureDependence(t *testing.T) {
	m := DefaultRetentionModel()
	cool := m.FailProb(5*time.Second, 45)
	hot := m.FailProb(5*time.Second, 65)
	if hot <= cool {
		t.Fatalf("failure probability must rise with temperature: %v <= %v", hot, cool)
	}
	// +10C halves retention: failing at 5s@55C ~ failing at 10s@45C.
	a := m.FailProb(5*time.Second, 55)
	b := m.FailProb(10*time.Second, 45)
	if math.Abs(a-b)/b > 1e-9 {
		t.Fatalf("halving law violated: %v vs %v", a, b)
	}
}

func TestFailProbMonotoneInInterval(t *testing.T) {
	m := DefaultRetentionModel()
	prev := 0.0
	for _, iv := range []time.Duration{64 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2 * time.Second, 5 * time.Second, 20 * time.Second} {
		p := m.FailProb(iv, 45)
		if p < prev {
			t.Fatalf("FailProb not monotone at %v", iv)
		}
		prev = p
	}
	if m.FailProb(0, 45) != 0 {
		t.Fatal("zero interval should have zero failure probability")
	}
}

// TestSampleWeakRetentionBelowHorizon: a weak cell's retention, drawn
// as fabrication draws it (a tail uniform mapped through the tail), lies
// below the horizon.
func TestSampleWeakRetentionBelowHorizon(t *testing.T) {
	tl := DefaultRetentionModel().tail()
	src := rng.New(3)
	for i := 0; i < 2000; i++ {
		r := tl.retention(drawU(src))
		if r <= 0 || r >= WeakCellHorizon.Seconds() {
			t.Fatalf("weak retention %v outside (0, %v)", r, WeakCellHorizon.Seconds())
		}
	}
}

func TestNewDIMMWeakPopulation(t *testing.T) {
	m := DefaultRetentionModel()
	d := NewDIMM(8<<30, 2, m, rng.New(7))
	if d.Bits() != 64<<30 {
		t.Fatalf("Bits = %d", d.Bits())
	}
	// Expected weak cells: 64e9 * P(<30s). Should be in the thousands,
	// not zero and not millions.
	if d.Len() < 1000 || d.Len() > 1000000 {
		t.Fatalf("weak cell count = %d, implausible", d.Len())
	}
}

func newTestSystem(t *testing.T, seed uint64) *MemorySystem {
	t.Helper()
	cfg := DefaultConfig()
	ms, err := New(cfg, DefaultRetentionModel(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, DefaultRetentionModel(), rng.New(1)); err == nil {
		t.Fatal("invalid config should error")
	}
}

func TestDomainLayout(t *testing.T) {
	ms := newTestSystem(t, 11)
	if got := len(ms.Domains); got != 4 {
		t.Fatalf("domains = %d, want 4", got)
	}
	rel := ms.ReliableDomain()
	if rel == nil || rel.Name != "channel0" {
		t.Fatalf("reliable domain = %+v", rel)
	}
	if got := len(ms.RelaxedDomains()); got != 3 {
		t.Fatalf("relaxed domains = %d, want 3", got)
	}
	var bits uint64
	for _, d := range ms.Domains {
		bits += d.Bits()
	}
	if bits != 4*2*(8<<30)*8 {
		t.Fatalf("capacity = %d bits", bits)
	}
}

func TestReliableDomainRefusesRelaxation(t *testing.T) {
	ms := newTestSystem(t, 13)
	rel := ms.ReliableDomain()
	if err := rel.SetRefresh(time.Second); err == nil {
		t.Fatal("reliable domain accepted relaxed refresh")
	}
	if err := rel.SetRefresh(32 * time.Millisecond); err != nil {
		t.Fatalf("reliable domain refused tightened refresh: %v", err)
	}
	if err := rel.SetRefresh(0); err == nil {
		t.Fatal("zero refresh accepted")
	}
}

func TestPatternTestAtNominalIsClean(t *testing.T) {
	ms := newTestSystem(t, 17)
	src := rng.New(1)
	for _, dom := range ms.Domains {
		res := ms.RunPatternTest(dom, src)
		if res.BitErrors != 0 {
			t.Fatalf("errors at nominal refresh on %s: %d", dom.Name, res.BitErrors)
		}
	}
}

// TestSection6BRefreshSweep reproduces the paper's DRAM result: no
// errors up to 1.5 s, and a cumulative BER of order 1e-9 at 5 s, which
// is within commercial DRAM targets and handled by SECDED.
func TestSection6BRefreshSweep(t *testing.T) {
	ms := newTestSystem(t, 20)
	intervals := []time.Duration{
		64 * time.Millisecond, 256 * time.Millisecond, 512 * time.Millisecond,
		time.Second, 1500 * time.Millisecond, 3 * time.Second, 5 * time.Second,
	}
	points, err := ms.CharacterizeRefresh(intervals, 3, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	byRefresh := map[time.Duration]SweepPoint{}
	for _, p := range points {
		byRefresh[p.Refresh] = p
	}
	for _, iv := range intervals[:5] { // up to and including 1.5 s
		if byRefresh[iv].BitErrors != 0 {
			t.Errorf("errors at %v: %d, paper saw none through 1.5s", iv, byRefresh[iv].BitErrors)
		}
	}
	p5 := byRefresh[5*time.Second]
	if p5.CumulativeBER > 1e-8 {
		t.Errorf("BER at 5s = %v, want order 1e-9", p5.CumulativeBER)
	}
	if !p5.SECDEDSafe {
		t.Error("5s BER should be within SECDED capability (1e-6)")
	}
	safe, ok := MaxSafeRefresh(points)
	if !ok || safe < 1500*time.Millisecond {
		t.Errorf("MaxSafeRefresh = %v, want >= 1.5s", safe)
	}
	// Domains restored to nominal after the campaign.
	for _, dom := range ms.RelaxedDomains() {
		if dom.Refresh != vfr.NominalRefresh {
			t.Errorf("domain %s left at %v", dom.Name, dom.Refresh)
		}
	}
}

func TestCharacterizeRefreshValidation(t *testing.T) {
	ms := newTestSystem(t, 23)
	if _, err := ms.CharacterizeRefresh([]time.Duration{time.Second}, 0, rng.New(1)); err == nil {
		t.Fatal("zero passes should error")
	}
}

func TestMaxSafeRefreshEmpty(t *testing.T) {
	if _, ok := MaxSafeRefresh(nil); ok {
		t.Fatal("empty sweep should report not found")
	}
	if _, ok := MaxSafeRefresh([]SweepPoint{{Refresh: time.Second, BitErrors: 5}}); ok {
		t.Fatal("all-failing sweep should report not found")
	}
}

func TestAllocatorPlacement(t *testing.T) {
	ms := newTestSystem(t, 29)
	al := NewAllocator(ms)
	k, err := al.Alloc("kernel", CriticalityKernel, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Domain.Reliable {
		t.Fatal("kernel allocation landed on relaxed domain")
	}
	h, err := al.Alloc("hypervisor", CriticalityHypervisor, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Domain.Reliable {
		t.Fatal("hypervisor allocation landed on relaxed domain")
	}
	v, err := al.Alloc("vm1", CriticalityNormal, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if v.Domain.Reliable {
		t.Fatal("normal allocation landed on reliable domain while relaxed space exists")
	}
}

func TestAllocatorRoundRobin(t *testing.T) {
	ms := newTestSystem(t, 31)
	al := NewAllocator(ms)
	domains := map[string]bool{}
	for i := 0; i < 6; i++ {
		a, err := al.Alloc("vm", CriticalityNormal, 10)
		if err != nil {
			t.Fatal(err)
		}
		domains[a.Domain.Name] = true
	}
	if len(domains) < 3 {
		t.Fatalf("round robin used only %d domains", len(domains))
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	cfg := Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 1 << 20, DeviceGb: 2, TempC: 45}
	ms, err := New(cfg, DefaultRetentionModel(), rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	al := NewAllocator(ms)
	// 1 MiB per domain = 256 pages.
	if _, err := al.Alloc("big", CriticalityNormal, 257); err == nil {
		t.Fatal("overcommit should fail")
	}
	if _, err := al.Alloc("k", CriticalityKernel, 256); err != nil {
		t.Fatal(err)
	}
	if _, err := al.Alloc("k2", CriticalityKernel, 1); err == nil {
		t.Fatal("reliable domain exhaustion should fail")
	}
}

func TestAllocatorFreeAndOwners(t *testing.T) {
	ms := newTestSystem(t, 41)
	al := NewAllocator(ms)
	mustAlloc := func(owner string, c Criticality, pages uint64) {
		t.Helper()
		if _, err := al.Alloc(owner, c, pages); err != nil {
			t.Fatal(err)
		}
	}
	mustAlloc("kernel", CriticalityKernel, 10)
	mustAlloc("vm1", CriticalityNormal, 20)
	mustAlloc("vm1", CriticalityNormal, 20)
	owners := func() []string {
		var out []string
		for _, a := range al.allocations {
			if !slices.Contains(out, a.Owner) {
				out = append(out, a.Owner)
			}
		}
		return out
	}
	if got := owners(); !slices.Equal(got, []string{"kernel", "vm1"}) {
		t.Fatalf("owners = %v", got)
	}
	if n := len(al.allocations); n != 3 {
		t.Fatalf("allocations = %d", n)
	}
	rel := ms.ReliableDomain()
	if al.used[rel] != 10*PageSize {
		t.Fatalf("reliable used = %d", al.used[rel])
	}
	if removed := al.Free("vm1"); removed != 2 {
		t.Fatalf("Free removed %d", removed)
	}
	if got := owners(); !slices.Equal(got, []string{"kernel"}) {
		t.Fatalf("vm1 not removed: owners = %v", got)
	}
	if al.Free("ghost") != 0 {
		t.Fatal("freeing unknown owner should remove nothing")
	}
}

func TestAllocValidation(t *testing.T) {
	ms := newTestSystem(t, 43)
	al := NewAllocator(ms)
	if _, err := al.Alloc("x", CriticalityNormal, 0); err == nil {
		t.Fatal("zero pages should error")
	}
}

// TestKernelIsolationPreventsErrors is the core Section 6.B safety
// argument: with the kernel on the reliable domain, relaxing every
// other domain to 5 s leaves the kernel unharmed, while the same
// kernel placed on a relaxed domain accumulates expected errors.
func TestKernelIsolationPreventsErrors(t *testing.T) {
	ms := newTestSystem(t, 47)
	al := NewAllocator(ms)
	if _, err := al.Alloc("kernel", CriticalityKernel, 1<<16); err != nil { // 256 MiB
		t.Fatal(err)
	}
	if _, err := al.Alloc("vm1", CriticalityNormal, 1<<18); err != nil { // 1 GiB
		t.Fatal(err)
	}
	for _, dom := range ms.RelaxedDomains() {
		if err := dom.SetRefresh(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var kernelExp, vmExp float64
	for _, e := range al.Exposure() {
		switch e.Owner {
		case "kernel":
			kernelExp += e.ExpectedErrors
		case "vm1":
			vmExp += e.ExpectedErrors
		}
	}
	if kernelExp > 1e-9 {
		t.Errorf("kernel on reliable domain has exposure %v, want ~0", kernelExp)
	}
	if vmExp <= kernelExp {
		t.Errorf("vm exposure (%v) should exceed kernel exposure (%v)", vmExp, kernelExp)
	}
	// Sampled window should never strike the kernel.
	src := rng.New(5)
	hits := make(map[string]int)
	for i := 0; i < 50; i++ {
		al.SimulateWindowInto(src, hits)
		if hits["kernel"] != 0 {
			t.Fatalf("kernel struck by retention error while on reliable domain")
		}
	}
}

func TestCriticalityString(t *testing.T) {
	if CriticalityKernel.String() != "kernel" ||
		CriticalityHypervisor.String() != "hypervisor" ||
		CriticalityNormal.String() != "normal" {
		t.Fatal("criticality names wrong")
	}
	if Criticality(9).String() == "" {
		t.Fatal("unknown criticality should still render")
	}
}

// benchDomain is the first relaxed domain of a dram.DefaultConfig
// system: the domain the lifetime and campaign workloads characterize.
func benchDomain(b *testing.B) (*MemorySystem, *Domain) {
	ms, err := New(DefaultConfig(), DefaultRetentionModel(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return ms, ms.RelaxedDomains()[0]
}

// BenchmarkRunPatternTest is one pattern-test pass at the longest
// interval a characterization sweeps.
func BenchmarkRunPatternTest(b *testing.B) {
	ms, dom := benchDomain(b)
	if err := dom.SetRefresh(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	src := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ms.RunPatternTest(dom, src)
	}
}

// BenchmarkToggleVRTCoarse is one fast-forward day of telegraph
// switching on a domain, after a 5 s pattern test has admitted the
// candidates a characterization leaves behind. Deferred toggles fold
// whenever the log fills, so their cost is included.
func BenchmarkToggleVRTCoarse(b *testing.B) {
	ms, dom := benchDomain(b)
	if err := dom.SetRefresh(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	src := rng.New(2)
	ms.RunPatternTest(dom, src)
	const windowsPerDay = 24 * 60
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ToggleVRTCoarse(dom, windowsPerDay, src)
	}
}
