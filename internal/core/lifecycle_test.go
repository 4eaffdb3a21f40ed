package core

import (
	"testing"
	"time"

	"uniserver/internal/silicon"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

func TestHandleCrashFallsBackToNominal(t *testing.T) {
	e, _ := readyEcosystem(t, 31)
	if _, err := e.EnterMode(vfr.ModeHighPerformance, 0.05, workload.WebFrontend()); err != nil {
		t.Fatal(err)
	}
	if e.Hypervisor.Point().VoltageMV >= e.Machine.Spec.Nominal.VoltageMV {
		t.Fatal("precondition: should be undervolted")
	}
	if err := e.HandleCrash(); err != nil {
		t.Fatal(err)
	}
	if e.Hypervisor.Point() != e.Machine.Spec.Nominal {
		t.Fatalf("not at nominal after crash: %v", e.Hypervisor.Point())
	}
	if e.mode != vfr.ModeNominal {
		t.Fatalf("mode = %v", e.mode)
	}
	for _, dom := range e.Mem.RelaxedDomains() {
		if dom.Refresh != vfr.NominalRefresh {
			t.Fatalf("domain %s still relaxed: %v", dom.Name, dom.Refresh)
		}
	}
}

func TestRecharacterizeRefreshesTable(t *testing.T) {
	e, _ := readyEcosystem(t, 32)
	before, err := e.Table().Lookup("i5-4200U/core0")
	if err != nil {
		t.Fatal(err)
	}
	// Age the part so the new campaign must publish a different point.
	e.Machine.Chip.Age(silicon.DefaultAgingModel(), 300*24*time.Hour, 1)
	vec, err := e.Recharacterize()
	if err != nil {
		t.Fatal(err)
	}
	after, err := e.Table().Lookup("i5-4200U/core0")
	if err != nil {
		t.Fatal(err)
	}
	if after.Safe.VoltageMV <= before.Safe.VoltageMV {
		t.Fatalf("aged recharacterization did not tighten margin: %d vs %d",
			after.Safe.VoltageMV, before.Safe.VoltageMV)
	}
	if vec.Table != e.Table() {
		t.Fatal("table not swapped")
	}
	// Advisor follows the new table.
	p, err := e.EnterMode(vfr.ModeHighPerformance, 0.05, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	if p.VoltageMV < after.Safe.VoltageMV {
		t.Fatalf("advice %d below the refreshed safe point %d", p.VoltageMV, after.Safe.VoltageMV)
	}
}

func TestRunDeploymentClosedLoop(t *testing.T) {
	e, _ := readyEcosystem(t, 33)
	sum, err := e.RunDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend(), 240)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Windows != 240 {
		t.Fatalf("windows = %d", sum.Windows)
	}
	if sum.WindowsAtEOP+sum.WindowsAtNominal != sum.Windows {
		t.Fatal("window accounting inconsistent")
	}
	// The whole point: the node spends the overwhelming majority of
	// its life at the extended point, not at nominal.
	if sum.WindowsAtEOP < sum.Windows*9/10 {
		t.Fatalf("only %d/%d windows at EOP", sum.WindowsAtEOP, sum.Windows)
	}
	if sum.EnergySavedWh <= 0 {
		t.Fatal("no energy saved")
	}
	if sum.FinalAgeShiftMV <= 0 {
		t.Fatal("aging never advanced")
	}
	if sum.FinalSafeVoltageMV == 0 {
		t.Fatal("final margin missing")
	}
	// Crashes, if any, must all have been recovered via fallback.
	if sum.Crashes != sum.Fallbacks {
		t.Fatalf("crashes %d != fallbacks %d", sum.Crashes, sum.Fallbacks)
	}
}

func TestRunDeploymentRespectsMode(t *testing.T) {
	e, _ := readyEcosystem(t, 34)
	sum, err := e.RunDeployment(vfr.ModeLowPower, 0.01, workload.IoTEdgeAnalytics(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if e.mode != vfr.ModeLowPower && sum.Crashes == 0 {
		t.Fatalf("mode = %v with no crash to explain it", e.mode)
	}
	if e.Hypervisor.Point().FreqMHz >= e.Machine.Spec.Nominal.FreqMHz && sum.Crashes == 0 {
		t.Fatal("low-power deployment running at full frequency")
	}
}
