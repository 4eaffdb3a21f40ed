package core

import (
	"testing"

	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

func TestNodeExportRequiresPreDeployment(t *testing.T) {
	e, err := New(smallOptions(51))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Node("n0", 64<<30); err == nil {
		t.Fatal("node exported before characterization")
	}
}

func TestNodeExportReflectsOperatingPoint(t *testing.T) {
	e, _ := readyEcosystem(t, 52)

	nominalNode, err := e.Node("nominal", 64<<30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnterMode(vfr.ModeHighPerformance, 0.05, workload.WebFrontend()); err != nil {
		t.Fatal(err)
	}
	eopNode, err := e.Node("eop", 64<<30)
	if err != nil {
		t.Fatal(err)
	}

	if eopNode.BusyPowerW >= nominalNode.BusyPowerW {
		t.Fatalf("EOP node busy power %.1fW not below nominal %.1fW",
			eopNode.BusyPowerW, nominalNode.BusyPowerW)
	}
	if eopNode.BaseFailProb < nominalNode.BaseFailProb {
		t.Fatalf("EOP node cannot be more reliable than nominal: %v vs %v",
			eopNode.BaseFailProb, nominalNode.BaseFailProb)
	}
	if eopNode.Mode != vfr.ModeHighPerformance {
		t.Fatalf("mode = %v", eopNode.Mode)
	}
	if eopNode.Cores != e.Hypervisor.AvailableCores() {
		t.Fatal("core count mismatch")
	}
}
