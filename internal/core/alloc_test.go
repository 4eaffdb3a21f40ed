package core

import (
	"testing"

	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// stepAllocBudget is the per-window allocation allowance for a quiet
// steady-state Deployment.Step — the regression fence behind the
// zero-allocation stepping work (see DESIGN.md "Performance"). A quiet
// window allocates nothing: the DRAM window stream and hit map, the
// component name, the core-resolver closure, the information vector's
// sensor readings (the HealthLog writes them and keeps none) and the
// report all come from per-ecosystem scratch or the stack. The budget
// leaves room for the amortized growth of the HealthLog's trigger
// window, which a stamp hands over already grown. If this budget ever
// needs raising, the hot path grew a leak; find it instead.
const stepAllocBudget = 4.0

// TestStepAllocationBudget pins the steady-state allocation count of
// the inner loop of every fleet and campaign run. Windows with events
// (crashes, ECC bursts, re-characterization) legitimately allocate
// more; the measured span is chosen quiet, which the test verifies.
func TestStepAllocationBudget(t *testing.T) {
	eco, err := New(smallOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eco.PreDeployment(); err != nil {
		t.Fatal(err)
	}
	d, err := eco.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the scratch state and the HealthLog window's first growth
	// steps so the measurement sees the steady state.
	for i := 0; i < 64; i++ {
		if _, err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	crashesBefore := d.Summary().Crashes
	avg := testing.AllocsPerRun(300, func() {
		if _, err := d.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if d.Summary().Crashes != crashesBefore {
		t.Fatalf("measured span was not quiet (crashes %d -> %d); pick another seed",
			crashesBefore, d.Summary().Crashes)
	}
	t.Logf("Deployment.Step: %.2f allocs/window (budget %.0f)", avg, stepAllocBudget)
	if avg > stepAllocBudget {
		t.Fatalf("Deployment.Step allocates %.2f/window, budget is %.0f — the hot path regressed",
			avg, stepAllocBudget)
	}
}
