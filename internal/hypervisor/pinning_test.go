package hypervisor

import (
	"fmt"
	"slices"
	"testing"
)

// pinning returns the VM's vCPU core assignment, sorted.
func pinning(h *Hypervisor, vm string) []int {
	return slices.Sorted(slices.Values(h.pins.byVM[vm]))
}

func TestStartVMPinsVCPUs(t *testing.T) {
	h := testHypervisor(t, 71)
	if err := h.StartVM(vmSpec("vm1", 3)); err != nil {
		t.Fatal(err)
	}
	cores := pinning(h, "vm1")
	if len(cores) != 3 {
		t.Fatalf("pinned cores = %v", cores)
	}
	total := 0
	for c := 0; c < 8; c++ {
		total += h.pins.load[c]
	}
	if total != 3 {
		t.Fatalf("total core load = %d", total)
	}
	if err := h.StopVM("vm1"); err != nil {
		t.Fatal(err)
	}
	if len(pinning(h, "vm1")) != 0 {
		t.Fatal("pins not released on stop")
	}
}

func TestPinningBalancesLoad(t *testing.T) {
	h := testHypervisor(t, 73)
	for i := 0; i < 8; i++ {
		if err := h.StartVM(vmSpec(fmt.Sprintf("vm%d", i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	// 16 vCPUs over 8 cores: perfectly balanced = 2 per core.
	for c := 0; c < 8; c++ {
		if got := h.pins.load[c]; got != 2 {
			t.Fatalf("core %d load = %d, want 2", c, got)
		}
	}
}

func TestIsolateCoreRehomesVCPUs(t *testing.T) {
	h := testHypervisor(t, 75)
	if err := h.StartVM(vmSpec("vm1", 8)); err != nil {
		t.Fatal(err)
	}
	// One vCPU per core; isolate core 3 and expect its vCPU elsewhere.
	if err := h.IsolateCore(3); err != nil {
		t.Fatal(err)
	}
	if h.pins.load[3] != 0 {
		t.Fatalf("isolated core still loaded: %d", h.pins.load[3])
	}
	cores := pinning(h, "vm1")
	if len(cores) != 8 {
		t.Fatalf("vm1 lost vCPUs: %v", cores)
	}
	for _, c := range cores {
		if c == 3 {
			t.Fatal("vCPU still pinned to isolated core")
		}
	}
	if _, ok := h.VM("vm1"); !ok {
		t.Fatal("vm1 should survive the isolation")
	}
}

func TestIsolateCoreEvictsWhenFull(t *testing.T) {
	h := testHypervisor(t, 77)
	// Saturate: 8 cores x 4 oversubscription = 32 vCPUs.
	for i := 0; i < 8; i++ {
		if err := h.StartVM(vmSpec(fmt.Sprintf("vm%d", i), 4)); err != nil {
			t.Fatal(err)
		}
	}
	before := len(h.VMNames())
	if err := h.IsolateCore(0); err != nil {
		t.Fatal(err)
	}
	after := len(h.VMNames())
	if after >= before {
		t.Fatalf("full host isolation should evict at least one VM: %d -> %d", before, after)
	}
	if h.Stats().VMsEvicted == 0 {
		t.Fatal("eviction not counted")
	}
	// Survivors must not reference the isolated core.
	for _, name := range h.VMNames() {
		for _, c := range pinning(h, name) {
			if c == 0 {
				t.Fatalf("%s still pinned to isolated core", name)
			}
		}
	}
}

func TestStartVMRefusedWhenCoresExhausted(t *testing.T) {
	h := testHypervisor(t, 79)
	for i := 0; i < 7; i++ {
		if err := h.IsolateCore(i); err != nil {
			t.Fatal(err)
		}
	}
	// One core left, oversub 4: a 5-vCPU VM cannot fit.
	if err := h.StartVM(vmSpec("big", 5)); err == nil {
		t.Fatal("over-capacity VM accepted on isolated host")
	}
	if err := h.StartVM(vmSpec("small", 4)); err != nil {
		t.Fatalf("4-vCPU VM should fit on the last core: %v", err)
	}
	if got := pinning(h, "small"); len(got) != 4 || got[0] != 7 {
		t.Fatalf("small pinned to %v, want 4x core 7", got)
	}
}
