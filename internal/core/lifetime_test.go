package core

import (
	"testing"
	"time"

	"uniserver/internal/dram"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// lifetimeTestOptions keeps lifetime tests fast: a small memory
// system makes characterization and fabrication cheap.
func lifetimeTestOptions(seed uint64) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Mem = dram.Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 1 << 30, DeviceGb: 2, TempC: 45}
	return opts
}

// characterized builds and characterizes one test ecosystem.
func characterized(t *testing.T, seed uint64) *Ecosystem {
	t.Helper()
	eco, err := New(lifetimeTestOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eco.PreDeployment(); err != nil {
		t.Fatal(err)
	}
	return eco
}

// vrtStates flattens every weak cell's current telegraph state.
func vrtStates(e *Ecosystem) []bool {
	var out []bool
	for _, dom := range e.Mem.Domains {
		for _, dimm := range dom.DIMMs {
			for i := range dimm.Len() {
				out = append(out, dimm.LowState(i))
			}
		}
	}
	return out
}

// TestFastForwardSplitEquivalence is the aging-equivalence contract:
// fast-forwarding N days in one gap and the same N days split across
// several gaps (same duty) must produce bit-identical silicon and
// DRAM aging state — stressed hours, Vcrit shift, every VRT telegraph
// state, the clock, and the subsequent window trace. The per-day
// coarse stepping makes this exact by construction: both paths
// perform the identical sequence of per-day aging adds and telegraph
// draws.
func TestFastForwardSplitEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	one := characterized(t, 7)
	split := characterized(t, 7)

	whole := Gap{Days: 90, Duty: 0.6, AmbientCPUC: 36, AmbientDIMMC: 42}
	dOne, err := one.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	dSplit, err := split.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	if err := dOne.FastForward(whole); err != nil {
		t.Fatal(err)
	}
	for _, days := range []int{30, 45, 15} {
		g := Gap{Days: days, Duty: 0.6, AmbientCPUC: 36, AmbientDIMMC: 42}
		if err := dSplit.FastForward(g); err != nil {
			t.Fatal(err)
		}
	}

	if a, b := one.Machine.Chip.StressedHours, split.Machine.Chip.StressedHours; a != b {
		t.Fatalf("stressed hours diverged: %v vs %v", a, b)
	}
	if a, b := one.Machine.Chip.AgeShiftMV, split.Machine.Chip.AgeShiftMV; a != b {
		t.Fatalf("age shift diverged: %v vs %v", a, b)
	}
	if a, b := one.Clock.Now(), split.Clock.Now(); !a.Equal(b) {
		t.Fatalf("clocks diverged: %v vs %v", a, b)
	}
	sa, sb := vrtStates(one), vrtStates(split)
	if len(sa) != len(sb) {
		t.Fatalf("weak-cell population sizes diverged: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("VRT telegraph state diverged at cell %d", i)
		}
	}
	// The forward trace must agree too: stream positions, thermal
	// state and aging all feed the next windows.
	for w := 0; w < 8; w++ {
		ra, err := dOne.Step()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := dSplit.Step()
		if err != nil {
			t.Fatal(err)
		}
		if ra.Crashed != rb.Crashed || ra.Correctable != rb.Correctable ||
			ra.CPUTempC != rb.CPUTempC || ra.ThermalAlarm != rb.ThermalAlarm {
			t.Fatalf("window %d diverged after split vs whole gap:\n%+v\n%+v", w, ra, rb)
		}
	}
}

// TestFastForwardAgesAndReseats checks the gap actually moves the
// slow state: the clock jumps, aging accumulates at the duty, ambient
// retargets land, and the thermal state sits exactly at ambient.
func TestFastForwardAgesAndReseats(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco := characterized(t, 3)
	d, err := eco.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	before := eco.Clock.Now()
	h0 := eco.Machine.Chip.StressedHours
	if err := d.FastForward(Gap{Days: 75, Duty: 0.5, AmbientCPUC: 38, AmbientDIMMC: 44}); err != nil {
		t.Fatal(err)
	}
	if got, want := eco.Clock.Now().Sub(before), 75*24*time.Hour; got != want {
		t.Fatalf("clock advanced %v, want %v", got, want)
	}
	if got, want := eco.Machine.Chip.StressedHours-h0, 75.0*24*0.5; got != want {
		t.Fatalf("gap accumulated %v stressed hours, want %v", got, want)
	}
	if eco.Machine.Chip.AgeShiftMV <= 0 {
		t.Fatal("gap produced no aging shift")
	}
	cpuC, dimmC := eco.cpuTherm.TempC, eco.memTherm.TempC
	if cpuC != 38 || dimmC != 44 {
		t.Fatalf("thermal state not re-seated at the gap ambient: %v / %v", cpuC, dimmC)
	}
	if eco.Mem.TempC != 44 {
		t.Fatalf("DRAM temperature %v not re-seated at ambient 44", eco.Mem.TempC)
	}
}

// TestRunLifetimeCadenceAndTrajectory drives a full multi-epoch
// lifetime and checks the tentpole observables: the cadence-driven
// re-characterizations actually run, the margin trajectory has one
// row per epoch, and the aging drift is monotone nondecreasing.
func TestRunLifetimeCadenceAndTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco := characterized(t, 5)
	plan := UniformPlan(4, 6, 91, 0.6)
	plan.RecharactEvery = 90 * 24 * time.Hour
	sum, err := eco.RunLifetime(vfr.ModeHighPerformance, 0.01, workload.WebFrontend(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Windows != plan.TotalWindows() {
		t.Fatalf("ran %d windows, want %d", sum.Windows, plan.TotalWindows())
	}
	if len(sum.Epochs) != plan.Epochs() {
		t.Fatalf("trajectory has %d epochs, want %d", len(sum.Epochs), plan.Epochs())
	}
	// 91-day gaps against a 90-day cadence: every epoch entry is due.
	if sum.Recharacterized < 3 {
		t.Fatalf("cadence produced only %d re-characterizations, want >= 3", sum.Recharacterized)
	}
	for i, ep := range sum.Epochs {
		if ep.Epoch != i {
			t.Fatalf("epoch %d labeled %d", i, ep.Epoch)
		}
		if i > 0 {
			if ep.GapDays != 91 {
				t.Fatalf("epoch %d records gap %d days, want 91", i, ep.GapDays)
			}
			if ep.AgeShiftMV < sum.Epochs[i-1].AgeShiftMV {
				t.Fatalf("margin drift not monotone: epoch %d age %v < epoch %d age %v",
					i, ep.AgeShiftMV, i-1, sum.Epochs[i-1].AgeShiftMV)
			}
			if ep.Recharacterized < 1 {
				t.Fatalf("epoch %d entry campaign missing", i)
			}
		}
		if ep.SafeVoltageMV == 0 {
			t.Fatalf("epoch %d has no published safe point", i)
		}
	}
	if last := sum.Epochs[len(sum.Epochs)-1]; last.AgeShiftMV <= sum.Epochs[0].AgeShiftMV {
		t.Fatal("lifetime produced no aging drift across epochs")
	}
	if sum.FinalAgeShiftMV < sum.Epochs[len(sum.Epochs)-1].AgeShiftMV {
		t.Fatal("final age shift below last epoch entry")
	}
}

// TestLifetimePlanValidate spot-checks the plan validator.
func TestLifetimePlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan LifetimePlan
	}{
		{"no epochs", LifetimePlan{}},
		{"zero windows", LifetimePlan{EpochWindows: []int{0}}},
		{"gap count mismatch", LifetimePlan{EpochWindows: []int{4, 4}}},
		{"bad gap days", LifetimePlan{EpochWindows: []int{4, 4}, Gaps: []Gap{{Days: 0, Duty: 0.5}}}},
		{"bad duty", LifetimePlan{EpochWindows: []int{4, 4}, Gaps: []Gap{{Days: 10, Duty: 1.5}}}},
		{"negative cadence", LifetimePlan{EpochWindows: []int{4}, RecharactEvery: -time.Hour}},
	}
	for _, c := range cases {
		if err := c.plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the plan", c.name)
		}
	}
	good := UniformPlan(3, 8, 30, 0.7)
	good.RecharactEvery = 30 * 24 * time.Hour
	if err := good.Validate(); err != nil {
		t.Errorf("uniform plan rejected: %v", err)
	}
	if got, want := good.TotalWindows(), 24; got != want {
		t.Errorf("TotalWindows = %d, want %d", got, want)
	}
}
