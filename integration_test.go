// Cross-module integration tests: full-stack scenarios that exercise
// several subsystems against each other, beyond what each package's
// unit tests cover.
package uniserver_test

import (
	"testing"

	"uniserver/internal/core"
	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/fleet"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

func smallEcosystem(t *testing.T, seed uint64) *core.Ecosystem {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Mem = dram.Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45}
	e, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PreDeployment(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestIntegrationYearOfService runs the closed deployment loop for a
// simulated stretch with aging, verifying the ecosystem keeps the node
// at EOP while margins drift and campaigns track them.
func TestIntegrationYearOfService(t *testing.T) {
	e := smallEcosystem(t, 45)
	// Accelerate: pre-age the chip as if months have passed, then run
	// the supervised loop.
	sum, err := e.RunDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend(), 500)
	if err != nil {
		t.Fatal(err)
	}
	if sum.WindowsAtEOP < sum.Windows*8/10 {
		t.Fatalf("spent only %d/%d windows at EOP", sum.WindowsAtEOP, sum.Windows)
	}
	if sum.EnergySavedWh <= 0 {
		t.Fatal("no energy recovered over the service period")
	}
	// HealthLog saw the whole deployment.
	if e.Health.Stats().Recorded < uint64(sum.Windows) {
		t.Fatalf("health log recorded %d < %d windows", e.Health.Stats().Recorded, sum.Windows)
	}
}

// TestIntegrationFleetNodeEqualsStandaloneNode pins the fleet engine's
// core invariant across layers: a node inside a concurrently stepped
// fleet runs the exact same closed-loop deployment as a standalone
// ecosystem built from the same derived seed. Parallelism must be pure
// orchestration — zero semantic drift from the single-node paper
// reproduction.
func TestIntegrationFleetNodeEqualsStandaloneNode(t *testing.T) {
	cfg := fleet.DefaultConfig(2)
	cfg.Seed = 77
	cfg.Windows = 30
	cfg.Workers = 2
	sum, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range sum.PerNode {
		opts := core.DefaultOptions()
		opts.Seed = fleet.NodeSeed(cfg.Seed, i)
		opts.Mem = cfg.Mem
		eco, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eco.PreDeployment(); err != nil {
			t.Fatal(err)
		}
		want, err := eco.RunDeployment(cfg.Mode, cfg.RiskTarget, cfg.Workload, cfg.Windows)
		if err != nil {
			t.Fatal(err)
		}
		if got.Crashes != want.Crashes ||
			got.Recharacterized != want.Recharacterized ||
			got.WindowsAtEOP != want.WindowsAtEOP ||
			got.CorrectableMasked != want.CorrectableMasked ||
			got.DRAMCorrected != want.DRAMCorrected ||
			got.MeanCPUTempC != want.MeanCPUTempC ||
			got.EnergySavedWh != want.EnergySavedWh ||
			got.FinalSafeVoltageMV != want.FinalSafeVoltageMV {
			t.Fatalf("fleet node %d diverged from standalone run:\nfleet:      %+v\nstandalone: %+v", i, got, want)
		}
	}
}

// TestIntegrationWorstCaseTableIsSafeEverywhere cross-checks the vfr
// worst-case reduction against the machine: the system-wide worst-case
// EOP voltage must be safe for every core under every SPEC workload.
func TestIntegrationWorstCaseTableIsSafeEverywhere(t *testing.T) {
	e := smallEcosystem(t, 46)
	worst, err := e.Table().WorstCase()
	if err != nil {
		t.Fatal(err)
	}
	// The table also contains the DRAM pseudo-margin whose voltage is
	// 1 mV; the worst-case voltage comes from the CPU cores.
	if worst.VoltageMV < 700 {
		t.Fatalf("worst-case voltage %d implausible", worst.VoltageMV)
	}
	crashes, runs := 0, 0
	for core := 0; core < e.Machine.Spec.Cores; core++ {
		for i := 0; i < 50; i++ {
			for _, bname := range []string{"mcf", "milc", "gobmk"} {
				bench, err := cpu.BenchmarkByName(bname)
				if err != nil {
					t.Fatal(err)
				}
				if e.Machine.RunAt(core, bench, worst.VoltageMV).Crashed {
					crashes++
				}
				runs++
			}
		}
	}
	if crashes > runs/20 {
		t.Fatalf("%d/%d crashes at the worst-case table point", crashes, runs)
	}
}
