package thermal

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestStartsAtAmbient(t *testing.T) {
	n := CPUNode(25)
	if n.TempC != 25 {
		t.Fatalf("initial temp = %v", n.TempC)
	}
}

func TestConvergesToSteadyState(t *testing.T) {
	n := CPUNode(25)
	const p = 20.0 // watts
	want := n.SteadyStateC(p)
	for i := 0; i < 100; i++ {
		n.Step(p, 5*time.Second)
	}
	if math.Abs(n.TempC-want) > 0.01 {
		t.Fatalf("temp = %v, steady state %v", n.TempC, want)
	}
	if want != 25+20*0.8 {
		t.Fatalf("steady state arithmetic wrong: %v", want)
	}
}

func TestCoolsBackToAmbient(t *testing.T) {
	n := CPUNode(25)
	for i := 0; i < 50; i++ {
		n.Step(30, 5*time.Second)
	}
	hot := n.TempC
	for i := 0; i < 100; i++ {
		n.Step(0, 5*time.Second)
	}
	if n.TempC >= hot || math.Abs(n.TempC-25) > 0.05 {
		t.Fatalf("did not cool to ambient: %v (was %v)", n.TempC, hot)
	}
}

func TestStepMonotoneTowardTarget(t *testing.T) {
	err := quick.Check(func(rawP, rawT uint8) bool {
		n := CPUNode(25)
		p := float64(rawP % 60)
		n.TempC = 25 + float64(rawT%70)
		before := n.TempC
		target := n.SteadyStateC(p)
		after := n.Step(p, time.Second)
		// The step must move toward the target without overshooting.
		if target > before {
			return after >= before && after <= target
		}
		return after <= before && after >= target
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestStepExactExponential(t *testing.T) {
	n := CPUNode(25)
	// One large step must equal many small steps (exact solution).
	big := CPUNode(25)
	for i := 0; i < 600; i++ {
		n.Step(15, 100*time.Millisecond)
	}
	big.Step(15, 60*time.Second)
	if math.Abs(n.TempC-big.TempC) > 1e-6 {
		t.Fatalf("step-size dependence: %v vs %v", n.TempC, big.TempC)
	}
	if n.Step(15, 0) != n.TempC {
		t.Fatal("zero step changed temperature")
	}
}

func TestDIMMSlowerAndCooler(t *testing.T) {
	cpu := CPUNode(25)
	dimm := DIMMNode(25)
	cpu.Step(10, 10*time.Second)
	dimm.Step(10, 10*time.Second)
	if dimm.TempC >= cpu.TempC {
		t.Fatalf("DIMM heated faster than SoC: %v vs %v", dimm.TempC, cpu.TempC)
	}
}

func TestTripThresholds(t *testing.T) {
	trip := DefaultTrip()
	if trip.Check(60) != 0 {
		t.Fatal("normal temp flagged")
	}
	if trip.Check(88) != 1 {
		t.Fatal("warning temp not flagged")
	}
	if trip.Check(96) != 2 {
		t.Fatal("trip temp not flagged")
	}
}

// TestStepAlphaMemoTracksInputs pins Step's memoized relaxation factor
// to the closed form, bit for bit, as dt and the time constant change
// between steps: a memo keyed on anything less than (dt, τ) would keep
// a stale alpha after one of them moves.
func TestStepAlphaMemoTracksInputs(t *testing.T) {
	n := CPUNode(25)
	ref := n.TempC
	for i, step := range []struct {
		dt, tau time.Duration
	}{
		{time.Minute, 20 * time.Second},
		{time.Minute, 20 * time.Second},
		{time.Minute, 90 * time.Second}, // τ changes
		{10 * time.Second, 90 * time.Second},
		{10 * time.Second, 90 * time.Second}, // dt changed, then repeats
		{time.Minute, 20 * time.Second},      // both back
	} {
		n.TimeConstant = step.tau
		powerW := 10 + float64(i)
		target := n.AmbientC + powerW*n.ResistanceCPerW
		ref += (target - ref) * (1 - math.Exp(-float64(step.dt)/float64(step.tau)))
		if got := n.Step(powerW, step.dt); math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("step %d (dt %v, τ %v): %v, closed form gives %v", i, step.dt, step.tau, got, ref)
		}
	}
}
