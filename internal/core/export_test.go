package core

import (
	"math"
	"testing"

	"uniserver/internal/cpu"
	"uniserver/internal/predictor"
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

// directFailProb is PredictedFailProb without its memo: the trained
// model's prediction at the ecosystem's live point, floored at 1e-4.
func directFailProb(e *Ecosystem) float64 {
	p := e.Model.Predict(predictor.Features{
		UndervoltPct:   -e.Hypervisor.Point().VoltageOffsetPct(e.Machine.Spec.Nominal.VoltageMV),
		DroopIntensity: 0.5,
		TempC:          55,
	})
	if p < 1e-4 {
		p = 1e-4
	}
	return p
}

// checkFailProb fails the test unless PredictedFailProb equals the
// direct prediction bit for bit.
func checkFailProb(t *testing.T, stage string, e *Ecosystem) {
	t.Helper()
	got, err := e.PredictedFailProb()
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	if want := directFailProb(e); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: PredictedFailProb %v at %d mV, direct prediction %v", stage, got, e.Hypervisor.Point().VoltageMV, want)
	}
}

// TestPredictedFailProbMemoExact is the memo's safety net: one arena
// stamps archetypes alternately — two parts, and two seeds of one part
// whose models differ at the same memo key — and steps each through a
// mode entry, ECC-loop steps, a mode switch, a crash fallback and a
// re-characterization. Every stamp starts and ends at a probe point 10%
// below nominal, so a memo that outlived its stamp would answer the
// next archetype of the same part with the previous model. A second
// PreDeployment refits the model under the same memo key too.
func TestPredictedFailProbMemoExact(t *testing.T) {
	var snaps []*Snapshot
	for _, a := range []struct {
		part cpu.PartSpec
		seed uint64
	}{{cpu.PartI5_4200U(), 61}, {cpu.PartI7_3970X(), 61}, {cpu.PartI5_4200U(), 62}} {
		opts := smallOptions(a.seed)
		opts.SetPart(a.part)
		eco, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eco.PreDeployment(); err != nil {
			t.Fatal(err)
		}
		snap, err := eco.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	probe := func(e *Ecosystem) {
		t.Helper()
		nominal := e.Machine.Spec.Nominal
		if err := e.Hypervisor.ApplyPoint(nominal.WithVoltage(nominal.VoltageMV * 9 / 10)); err != nil {
			t.Fatal(err)
		}
	}
	arena := NewRestoreArena()
	for cycle := 0; cycle < 2; cycle++ {
		for k, snap := range snaps {
			eco, err := snap.RestoreInto(arena, RestoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := eco.Reseed(uint64(100*cycle + k)); err != nil {
				t.Fatal(err)
			}
			probe(eco)
			checkFailProb(t, "probe after the stamp", eco)
			d, err := eco.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
			if err != nil {
				t.Fatal(err)
			}
			checkFailProb(t, "mode entry", eco)
			d.SetECCLoop(1 << 20)
			for w := 0; w < 3; w++ {
				if _, err := d.Step(); err != nil {
					t.Fatal(err)
				}
				checkFailProb(t, "ECC-loop step", eco)
			}
			if err := d.SwitchMode(vfr.ModeLowPower, 0.01); err != nil {
				t.Fatal(err)
			}
			checkFailProb(t, "mode switch", eco)
			if err := eco.HandleCrash(); err != nil {
				t.Fatal(err)
			}
			checkFailProb(t, "crash fallback", eco)
			if err := d.RecharacterizeNow(); err != nil {
				t.Fatal(err)
			}
			checkFailProb(t, "re-characterization", eco)
			probe(eco)
			checkFailProb(t, "probe before the next stamp", eco)
		}
	}

	eco, err := New(smallOptions(63))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := eco.PreDeployment(); err != nil {
			t.Fatal(err)
		}
		probe(eco)
		checkFailProb(t, "probe after PreDeployment", eco)
	}
}
