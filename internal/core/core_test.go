package core

import (
	"bytes"
	"testing"
	"time"

	"uniserver/internal/dram"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// smallOptions shrinks the memory system so tests stay fast.
func smallOptions(seed uint64) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Mem = dram.Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45}
	return opts
}

func readyEcosystem(t *testing.T, seed uint64) (*Ecosystem, PreDeploymentReport) {
	t.Helper()
	e, err := New(smallOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.PreDeployment()
	if err != nil {
		t.Fatal(err)
	}
	return e, rep
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
}

func TestPreDeploymentPipeline(t *testing.T) {
	var logBuf bytes.Buffer
	opts := smallOptions(1)
	opts.HealthLogOut = &logBuf
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.PreDeployment()
	if err != nil {
		t.Fatal(err)
	}
	if e.Table() == nil || e.Table().Len() < 3 {
		t.Fatal("EOP table not published")
	}
	if rep.ProtectedObjects == 0 {
		t.Fatal("no objects protected")
	}
	if rep.FaultsInjected != 16820*5 {
		t.Fatalf("faults injected = %d", rep.FaultsInjected)
	}
	if rep.PredictorAcc < 0.9 {
		t.Fatalf("predictor accuracy = %v", rep.PredictorAcc)
	}
	if rep.Margins.SafeRefresh < vfr.NominalRefresh {
		t.Fatal("no DRAM margin published")
	}
	if logBuf.Len() == 0 {
		t.Fatal("campaign wrote nothing to the system logfile")
	}
}

func TestEnterModeRequiresPreDeployment(t *testing.T) {
	e, err := New(smallOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnterMode(vfr.ModeHighPerformance, 0.01, workload.WebFrontend()); err == nil {
		t.Fatal("EnterMode before PreDeployment accepted")
	}
}

func TestEnterHighPerformanceSavesPower(t *testing.T) {
	e, _ := readyEcosystem(t, 3)
	p, err := e.EnterMode(vfr.ModeHighPerformance, 0.05, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	if p.FreqMHz != e.Machine.Spec.Nominal.FreqMHz {
		t.Fatalf("high-performance mode changed frequency: %v", p)
	}
	if p.VoltageMV >= e.Machine.Spec.Nominal.VoltageMV {
		t.Fatalf("no undervolt applied: %v", p)
	}
	rep := e.Power(0.7)
	if rep.SavingsPct <= 5 {
		t.Fatalf("power savings = %.1f%%, want meaningful", rep.SavingsPct)
	}
	if rep.RefreshSavingsPct <= 0 {
		t.Fatalf("refresh savings = %.1f%%, want positive", rep.RefreshSavingsPct)
	}
	if e.Mode() != vfr.ModeHighPerformance {
		t.Fatalf("mode = %v", e.Mode())
	}
	// Relaxed domains actually reconfigured.
	for _, dom := range e.Mem.RelaxedDomains() {
		if dom.Refresh <= vfr.NominalRefresh {
			t.Fatalf("domain %s still at %v", dom.Name, dom.Refresh)
		}
	}
}

func TestEnterLowPowerSavesMore(t *testing.T) {
	e, _ := readyEcosystem(t, 4)
	if _, err := e.EnterMode(vfr.ModeHighPerformance, 0.05, workload.WebFrontend()); err != nil {
		t.Fatal(err)
	}
	hp := e.Power(0.7)
	if _, err := e.EnterMode(vfr.ModeLowPower, 0.05, workload.WebFrontend()); err != nil {
		t.Fatal(err)
	}
	lp := e.Power(0.7)
	if lp.CurrentW >= hp.CurrentW {
		t.Fatalf("low-power (%vW) should draw less than high-performance (%vW)",
			lp.CurrentW, hp.CurrentW)
	}
	if lp.Point.FreqMHz >= hp.Point.FreqMHz {
		t.Fatal("low-power should reduce frequency")
	}
}

func TestRuntimeWindowsMostlySafe(t *testing.T) {
	e, _ := readyEcosystem(t, 5)
	if _, err := e.EnterMode(vfr.ModeHighPerformance, 0.01, workload.WebFrontend()); err != nil {
		t.Fatal(err)
	}
	crashes := 0
	const windows = 300
	for i := 0; i < windows; i++ {
		rep := e.RuntimeWindow(workload.WebFrontend())
		if rep.Crashed {
			crashes++
		}
	}
	// The advised point sits a cushion above the crash region: crashes
	// must be rare (the paper's "sporadic errors may still occur").
	if crashes > windows/20 {
		t.Fatalf("%d crashes in %d windows at advised point", crashes, windows)
	}
}

func TestRuntimeWindowRecordsToHealthLog(t *testing.T) {
	e, _ := readyEcosystem(t, 6)
	if _, err := e.EnterMode(vfr.ModeHighPerformance, 0.05, workload.WebFrontend()); err != nil {
		t.Fatal(err)
	}
	before := e.Health.Stats().Recorded
	for i := 0; i < 10; i++ {
		e.RuntimeWindow(workload.WebFrontend())
	}
	if e.Health.Stats().Recorded != before+10 {
		t.Fatalf("recorded %d vectors", e.Health.Stats().Recorded-before)
	}
}

func TestDeterminism(t *testing.T) {
	e1, r1 := readyEcosystem(t, 7)
	e2, r2 := readyEcosystem(t, 7)
	if r1.ProtectedObjects != r2.ProtectedObjects || r1.PredictorAcc != r2.PredictorAcc {
		t.Fatal("pre-deployment not deterministic")
	}
	p1, err := e1.EnterMode(vfr.ModeHighPerformance, 0.05, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e2.EnterMode(vfr.ModeHighPerformance, 0.05, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("advised points diverged: %v vs %v", p1, p2)
	}
}

func TestPeriodicRecharacterizationDue(t *testing.T) {
	e, _ := readyEcosystem(t, 8)
	if e.Stress.DueAt(e.Clock.Now()) {
		t.Fatal("fresh characterization should not be due")
	}
	e.Clock.Advance(80 * 24 * time.Hour)
	if !e.Stress.DueAt(e.Clock.Now()) {
		t.Fatal("re-characterization should be due after ~2.5 months")
	}
}

// TestGuardbandVsEOPHeadline quantifies the headline claim: the EOP
// point recovers a double-digit percentage of CPU power relative to
// running at nominal guardbanded voltage.
func TestGuardbandVsEOPHeadline(t *testing.T) {
	e, _ := readyEcosystem(t, 9)
	if _, err := e.EnterMode(vfr.ModeHighPerformance, 0.05, workload.WebFrontend()); err != nil {
		t.Fatal(err)
	}
	rep := e.Power(0.7)
	if rep.SavingsPct < 10 {
		t.Fatalf("EOP recovers only %.1f%% CPU power", rep.SavingsPct)
	}
	if rep.CurrentW >= rep.NominalW {
		t.Fatal("EOP point draws more than nominal")
	}
}
