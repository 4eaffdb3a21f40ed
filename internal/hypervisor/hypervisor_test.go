package hypervisor

import (
	"strings"
	"testing"

	"uniserver/internal/dram"
	"uniserver/internal/rng"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

func testMem(t *testing.T, seed uint64) *dram.MemorySystem {
	t.Helper()
	cfg := dram.Config{Channels: 4, DIMMsPerChannel: 2, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45}
	ms, err := dram.New(cfg, dram.DefaultRetentionModel(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func testHypervisor(t *testing.T, seed uint64) *Hypervisor {
	t.Helper()
	om := NewObjectMap(DefaultProfiles(), rng.New(seed))
	h, err := New(DefaultConfig(), om, testMem(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// placements returns the domains of the owner's allocations, read
// from the allocator's image.
func placements(h *Hypervisor, owner string) []*dram.Domain {
	var out []*dram.Domain
	for _, a := range h.Allocator().Image().Allocations {
		if a.Owner == owner {
			out = append(out, h.mem.Domains[a.Domain])
		}
	}
	return out
}

func vmSpec(name string, vcpus int) workload.VMSpec {
	p := workload.IoTEdgeAnalytics()
	return workload.VMSpec{Name: name, VCPUs: vcpus, MemBytes: p.MemTargetBytes * 2, Profile: p}
}

func TestObjectMapInventory(t *testing.T) {
	om := NewObjectMap(DefaultProfiles(), rng.New(1))
	if om.Len() != TotalObjects {
		t.Fatalf("object count = %d, want %d (paper)", om.Len(), TotalObjects)
	}
	counts := make(map[Category]int)
	for _, o := range om.Objects {
		counts[o.Category]++
	}
	if len(counts) != len(Categories()) {
		t.Fatalf("categories = %d, want %d", len(counts), len(Categories()))
	}
	total := 0
	for _, p := range DefaultProfiles() {
		if counts[p.Category] != p.Count {
			t.Errorf("%s count = %d, want %d", p.Category, counts[p.Category], p.Count)
		}
		total += p.Count
	}
	if total != TotalObjects {
		t.Fatalf("profile counts sum to %d", total)
	}
	if om.StaticBytes() == 0 {
		t.Fatal("objects have no size")
	}
}

func TestObjectMapAccessProbs(t *testing.T) {
	om := NewObjectMap(DefaultProfiles(), rng.New(2))
	for _, c := range Categories() {
		loaded := om.AccessProb(c, true)
		unloaded := om.AccessProb(c, false)
		if loaded <= unloaded {
			t.Errorf("%s: loaded access %v should exceed unloaded %v", c, loaded, unloaded)
		}
	}
	if om.AccessProb("nope", true) != 0 {
		t.Error("unknown category should have zero access prob")
	}
	if _, ok := om.profile("nope"); ok {
		t.Error("unknown category has a profile")
	}
}

func TestObjectMapProtect(t *testing.T) {
	om := NewObjectMap(DefaultProfiles(), rng.New(3))
	n := om.Protect(CatFS, CatKernel)
	want := 0
	for _, p := range DefaultProfiles() {
		if p.Category == CatFS || p.Category == CatKernel {
			want += p.Count
		}
	}
	if n != want {
		t.Fatalf("Protect covered %d objects, want %d", n, want)
	}
	if om.Protect(CatFS) != 0 {
		t.Fatal("re-protecting should cover nothing new")
	}
	if om.ProtectedBytes() == 0 {
		t.Fatal("protected bytes should be positive")
	}
	if got := om.ProtectObjects([]int{0, 0, -1, 1 << 30}); got > 1 {
		t.Fatalf("ProtectObjects out-of-range handling wrong: %d", got)
	}
}

func TestNewValidation(t *testing.T) {
	om := NewObjectMap(DefaultProfiles(), rng.New(4))
	mem := testMem(t, 4)
	if _, err := New(Config{}, om, mem); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := New(DefaultConfig(), nil, mem); err == nil {
		t.Fatal("nil object map accepted")
	}
	if _, err := New(DefaultConfig(), om, nil); err == nil {
		t.Fatal("nil memory accepted")
	}
}

func TestHypervisorOwnStateOnReliableDomain(t *testing.T) {
	h := testHypervisor(t, 5)
	doms := placements(h, DefaultConfig().Name+"/hypervisor")
	if len(doms) != 1 {
		t.Fatalf("hypervisor allocations = %d", len(doms))
	}
	if !doms[0].Reliable {
		t.Fatal("hypervisor state not on reliable domain")
	}
}

func TestStartStopVM(t *testing.T) {
	h := testHypervisor(t, 7)
	if err := h.StartVM(vmSpec("vm1", 2)); err != nil {
		t.Fatal(err)
	}
	if err := h.StartVM(vmSpec("vm1", 2)); err == nil {
		t.Fatal("duplicate VM accepted")
	}
	if names := h.VMNames(); len(names) != 1 || names[0] != "vm1" {
		t.Fatalf("VMNames = %v", names)
	}
	vm, ok := h.VM("vm1")
	if !ok || vm.Spec.Name != "vm1" {
		t.Fatalf("VM lookup = %+v, %v", vm, ok)
	}
	// Guest memory must be on relaxed domains; overhead on reliable.
	for _, dom := range placements(h, "vm1") {
		if dom.Reliable {
			t.Error("guest memory landed on reliable domain")
		}
	}
	for _, dom := range placements(h, "vm1/overhead") {
		if !dom.Reliable {
			t.Error("VM overhead not on reliable domain")
		}
	}
	if err := h.StopVM("vm1"); err != nil {
		t.Fatal(err)
	}
	if err := h.StopVM("vm1"); err == nil {
		t.Fatal("double stop accepted")
	}
	if len(placements(h, "vm1")) != 0 {
		t.Fatal("guest memory not freed")
	}
}

func TestVCPUCapacity(t *testing.T) {
	h := testHypervisor(t, 9)
	// 8 cores x 4 oversubscription = 32 vCPUs.
	for i := 0; i < 8; i++ {
		if err := h.StartVM(vmSpec(strings.Repeat("v", i+1), 4)); err != nil {
			t.Fatalf("VM %d rejected: %v", i, err)
		}
	}
	if err := h.StartVM(vmSpec("overflow", 1)); err == nil {
		t.Fatal("vCPU overflow accepted")
	}
}

func TestIsolationReducesCapacity(t *testing.T) {
	h := testHypervisor(t, 11)
	if h.AvailableCores() != 8 {
		t.Fatalf("available = %d", h.AvailableCores())
	}
	if err := h.IsolateCore(3); err != nil {
		t.Fatal(err)
	}
	if err := h.IsolateCore(3); err != nil {
		t.Fatal(err) // idempotent
	}
	if h.AvailableCores() != 7 {
		t.Fatalf("available after isolation = %d", h.AvailableCores())
	}
	if got := h.isolatedCores; len(got) != 1 || !got[3] {
		t.Fatalf("isolated cores = %v", got)
	}
	if err := h.IsolateCore(99); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	if h.Stats().CoresIsolated != 1 {
		t.Fatalf("stats = %+v", h.Stats())
	}
}

func TestApplyPoint(t *testing.T) {
	h := testHypervisor(t, 13)
	nominal := h.Point()
	if err := h.ApplyPoint(nominal.WithVoltage(nominal.VoltageMV - 80)); err != nil {
		t.Fatal(err)
	}
	if h.Point().VoltageMV != nominal.VoltageMV-80 {
		t.Fatal("point not applied")
	}
	if err := h.ApplyPoint(nominal.WithVoltage(nominal.VoltageMV + 10)); err == nil {
		t.Fatal("overvolt accepted")
	}
	if err := h.ApplyPoint(vfr.Point{}); err == nil {
		t.Fatal("invalid point accepted")
	}
}

func TestApplyRefresh(t *testing.T) {
	h := testHypervisor(t, 15)
	p := vfr.Point{VoltageMV: 1, FreqMHz: 1, Refresh: 1500 * 1e6} // 1.5s in ns
	if err := h.ApplyRefresh(p); err != nil {
		t.Fatal(err)
	}
	for _, dom := range h.mem.RelaxedDomains() {
		if dom.Refresh != p.Refresh {
			t.Fatalf("domain %s refresh = %v", dom.Name, dom.Refresh)
		}
	}
	if h.mem.ReliableDomain().Refresh != vfr.NominalRefresh {
		t.Fatal("reliable domain refresh was changed")
	}
	if err := h.ApplyRefresh(vfr.Point{}); err == nil {
		t.Fatal("zero refresh accepted")
	}
}

func TestHandleCorrectableMasks(t *testing.T) {
	h := testHypervisor(t, 17)
	h.MaskCorrectable(2, 3)
	h.MaskCorrectable(-1, 4) // DRAM
	if h.Stats().ErrorsMasked != 7 {
		t.Fatalf("masked = %d", h.Stats().ErrorsMasked)
	}
	if len(h.isolatedCores) != 0 || h.errorCounts[2] != 3 {
		t.Fatalf("isolated cores %v, error counts %v", h.isolatedCores, h.errorCounts)
	}
}

func TestHandleCorrectableIsolatesAfterThreshold(t *testing.T) {
	h := testHypervisor(t, 19)
	for i := 0; i < 7; i++ {
		h.MaskCorrectable(2, 3)
		h.MaskCorrectable(-1, 3) // DRAM errors isolate nothing
	}
	if len(h.isolatedCores) != 0 {
		t.Fatalf("isolated cores %v below the threshold", h.isolatedCores)
	}
	h.MaskCorrectable(2, 3) // 24: the threshold
	if got := h.isolatedCores; len(got) != 1 || !got[2] {
		t.Fatalf("isolated cores = %v", got)
	}
	if h.errorCounts[2] != 0 || h.Stats().CoresIsolated != 1 {
		t.Fatalf("error counts %v, stats %+v after isolation", h.errorCounts, h.Stats())
	}
}

// TestFigure3Footprint reproduces Figure 3: four LDBC VM instances,
// hypervisor footprint always below 7% of total utilized memory.
func TestFigure3Footprint(t *testing.T) {
	h := testHypervisor(t, 29)
	res, err := FootprintExperiment(h, 4, 96, workload.LDBCSocialNetwork())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 96 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	if !res.Claim7Pct {
		t.Fatalf("footprint ratio reached %.2f%%, paper claims < 7%%", res.MaxRatio)
	}
	if res.MaxRatio <= 0 {
		t.Fatal("ratio should be positive")
	}
	// All four instances eventually run concurrently.
	max := 0
	for _, s := range res.Samples {
		if s.RunningVMs > max {
			max = s.RunningVMs
		}
		if s.TotalBytes != s.HypervisorBytes+s.GuestBytes {
			t.Fatal("sample total inconsistent")
		}
	}
	if max != 4 {
		t.Fatalf("max concurrent instances = %d, want 4", max)
	}
}

func TestFootprintExperimentValidation(t *testing.T) {
	h := testHypervisor(t, 31)
	if _, err := FootprintExperiment(h, 0, 10, workload.LDBCSocialNetwork()); err == nil {
		t.Fatal("zero instances accepted")
	}
	if _, err := FootprintExperiment(h, 1, 0, workload.LDBCSocialNetwork()); err == nil {
		t.Fatal("zero windows accepted")
	}
}

func TestFootprintRatioFallsWithMoreGuests(t *testing.T) {
	h := testHypervisor(t, 33)
	if err := h.StartVM(vmSpec("a", 1)); err != nil {
		t.Fatal(err)
	}
	one := h.FootprintRatioPct()
	if err := h.StartVM(vmSpec("b", 1)); err != nil {
		t.Fatal(err)
	}
	two := h.FootprintRatioPct()
	if two >= one {
		t.Fatalf("ratio should fall as guests grow: 1 VM %.2f%%, 2 VMs %.2f%%", one, two)
	}
}
