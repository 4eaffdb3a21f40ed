package openstack

import (
	"testing"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

func spec(name string, vcpus int, mem uint64) workload.VMSpec {
	p := workload.IoTEdgeAnalytics()
	if mem < p.MemTargetBytes {
		mem = p.MemTargetBytes
	}
	return workload.VMSpec{Name: name, VCPUs: vcpus, MemBytes: mem, Profile: p}
}

func twoNodeManager(t *testing.T, policy Policy) (*Manager, *Node, *Node) {
	t.Helper()
	a := NewNode("node-a", 8, 32<<30, 0.0001)
	b := NewNode("node-b", 8, 32<<30, 0.0001)
	m, err := NewManager(policy, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return m, a, b
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(UniServerPolicy()); err == nil {
		t.Fatal("empty fleet accepted")
	}
	n := NewNode("x", 4, 1<<30, 0.001)
	if _, err := NewManager(UniServerPolicy(), n, n); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestNodeFailProbByMode(t *testing.T) {
	n := NewNode("x", 4, 1<<30, 0.001)
	nominal := n.FailProb()
	n.Mode = vfr.ModeLowPower
	eop := n.FailProb()
	if eop <= nominal {
		t.Fatalf("EOP mode should raise failure probability: %v <= %v", eop, nominal)
	}
	n.BaseFailProb = 0.9
	if n.FailProb() > 1 {
		t.Fatal("failure probability must clamp at 1")
	}
}

func TestNodePowerByMode(t *testing.T) {
	n := NewNode("x", 4, 8<<30, 0.001)
	n.place(&Instance{Spec: spec("v", 2, 1<<30)})
	nominal := n.Metrics().PowerW
	n.Mode = vfr.ModeHighPerformance
	hp := n.Metrics().PowerW
	n.Mode = vfr.ModeLowPower
	lp := n.Metrics().PowerW
	if !(lp < hp && hp < nominal) {
		t.Fatalf("power ordering wrong: lp=%v hp=%v nominal=%v", lp, hp, nominal)
	}
}

func TestScheduleFiltersCapacity(t *testing.T) {
	m, a, _ := twoNodeManager(t, UniServerPolicy())
	// Fill node-a's memory so only node-b fits.
	a.usedMem = a.MemBytes
	node, err := m.Schedule(spec("vm1", 2, 1<<30), SLABronze)
	if err != nil {
		t.Fatal(err)
	}
	if node != "node-b" {
		t.Fatalf("scheduled on %s, want node-b", node)
	}
}

func TestScheduleEnforcesSLA(t *testing.T) {
	m, a, b := twoNodeManager(t, UniServerPolicy())
	a.BaseFailProb = 0.03 // too flaky for gold (0.0005)
	b.BaseFailProb = 0.0001
	node, err := m.Schedule(spec("gold-vm", 2, 1<<30), SLAGold)
	if err != nil {
		t.Fatal(err)
	}
	if node != "node-b" {
		t.Fatalf("gold VM scheduled on flaky node %s", node)
	}
	// A request no node satisfies is rejected.
	b.BaseFailProb = 0.03
	if _, err := m.Schedule(spec("gold-vm2", 2, 1<<30), SLAGold); err == nil {
		t.Fatal("infeasible gold request accepted")
	}
	if m.Rejected != 1 {
		t.Fatalf("rejected = %d", m.Rejected)
	}
}

func TestLegacyPolicyIgnoresReliability(t *testing.T) {
	m, a, b := twoNodeManager(t, LegacyPolicy())
	a.BaseFailProb = 0.2 // terrible, but legacy does not care
	b.BaseFailProb = 0.0001
	b.usedVCPUs = 7 // make b look busy so spread prefers a
	node, err := m.Schedule(spec("vm1", 1, 1<<30), SLAGold)
	if err != nil {
		t.Fatal(err)
	}
	if node != "node-a" {
		t.Fatalf("legacy policy scheduled on %s; expected utilization-driven node-a", node)
	}
}

func TestSchedulePrefersReliableNode(t *testing.T) {
	m, a, b := twoNodeManager(t, UniServerPolicy())
	a.BaseFailProb = 0.04
	b.BaseFailProb = 0.0001
	node, err := m.Schedule(spec("vm1", 1, 1<<30), SLABronze) // bronze tolerates both
	if err != nil {
		t.Fatal(err)
	}
	if node != "node-b" {
		t.Fatalf("reliability-aware policy chose %s", node)
	}
}

func TestScheduleValidatesSpec(t *testing.T) {
	m, _, _ := twoNodeManager(t, UniServerPolicy())
	bad := workload.VMSpec{Name: "", VCPUs: 1, MemBytes: 1 << 30}
	if _, err := m.Schedule(bad, SLABronze); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestTerminate(t *testing.T) {
	m, _, _ := twoNodeManager(t, UniServerPolicy())
	if _, err := m.Schedule(spec("vm1", 1, 1<<30), SLABronze); err != nil {
		t.Fatal(err)
	}
	if !m.Terminate("vm1") {
		t.Fatal("terminate failed")
	}
	if m.Terminate("vm1") {
		t.Fatal("double terminate succeeded")
	}
	for _, n := range m.sorted {
		if len(n.Instances()) != 0 {
			t.Fatal("instance left behind")
		}
		if n.usedVCPUs != 0 || n.usedMem != 0 {
			t.Fatal("resources not released")
		}
	}
}

func TestProactiveMigrationDrainsRiskyNode(t *testing.T) {
	m, a, b := twoNodeManager(t, UniServerPolicy())
	if _, err := m.Schedule(spec("gold-vm", 1, 1<<30), SLAGold); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Schedule(spec("bronze-vm", 1, 1<<30), SLABronze); err != nil {
		t.Fatal(err)
	}
	// Everything lands somewhere across a/b; force both onto a.
	for _, inst := range b.Instances() {
		b.remove(inst.Spec.Name)
		a.place(inst)
	}
	a.BaseFailProb = 0.1 // predictor flags node-a
	moved := m.ProactiveMigration()
	if moved != 2 {
		t.Fatalf("moved = %d, want 2", moved)
	}
	if len(a.Instances()) != 0 {
		t.Fatal("risky node not drained")
	}
	if len(b.Instances()) != 2 {
		t.Fatal("instances did not land on healthy node")
	}
	if m.Migrations != 2 {
		t.Fatalf("migration count = %d", m.Migrations)
	}
}

func TestProactiveMigrationDisabledByPolicy(t *testing.T) {
	m, a, _ := twoNodeManager(t, LegacyPolicy())
	if _, err := m.Schedule(spec("vm1", 1, 1<<30), SLABronze); err != nil {
		t.Fatal(err)
	}
	a.BaseFailProb = 0.5
	if m.ProactiveMigration() != 0 {
		t.Fatal("legacy policy migrated")
	}
}

func TestTickCrashAndRepair(t *testing.T) {
	a := NewNode("node-a", 8, 32<<30, 1.0) // certain crash
	m, err := NewManager(UniServerPolicy(), a)
	if err != nil {
		t.Fatal(err)
	}
	// SLA filter would refuse placement on a doomed node; bypass via
	// direct placement to observe violation accounting.
	a.place(&Instance{Spec: spec("vm1", 1, 1<<30), SLA: SLABronze})
	src := rng.New(1)
	m.Tick(time.Minute, 0, 10*time.Minute, src)
	if m.Crashes != 1 || m.SLAViolations != 1 {
		t.Fatalf("crash accounting: %+v", m)
	}
	if a.Online() {
		t.Fatal("crashed node still online")
	}
	// Before repair completes the node stays down.
	m.Tick(time.Minute, 5*time.Minute, 10*time.Minute, src)
	if a.Online() {
		t.Fatal("node repaired too early")
	}
	a.BaseFailProb = 0 // repaired hardware behaves
	m.Tick(time.Minute, 11*time.Minute, 10*time.Minute, src)
	if !a.Online() {
		t.Fatal("node not repaired")
	}
	met := a.Metrics()
	if met.Availability >= 1 {
		t.Fatalf("availability should reflect downtime: %v", met.Availability)
	}
}

func TestMetricsUtilization(t *testing.T) {
	n := NewNode("x", 4, 8<<30, 0.001)
	n.place(&Instance{Spec: spec("v", 2, 4<<30)})
	met := n.Metrics()
	if met.UtilizationCPU != 0.5 {
		t.Fatalf("cpu util = %v", met.UtilizationCPU)
	}
	if met.UtilizationMem != 0.5 {
		t.Fatalf("mem util = %v", met.UtilizationMem)
	}
	if met.Reliability <= 0.99 {
		t.Fatalf("reliability = %v", met.Reliability)
	}
}

// TestStreamUniServerBeatsLegacy is the Section 4.B end-to-end claim:
// with the reliability metric, SLA filtering and proactive migration,
// the UniServer policy suffers far fewer SLA violations than the
// legacy policy on an identical degrading fleet and workload stream.
func TestStreamUniServerBeatsLegacy(t *testing.T) {
	run := func(policy Policy, seed uint64) SimResult {
		nodes := Fleet(8, 16, 64<<30, rng.New(seed))
		m, err := NewManager(policy, nodes...)
		if err != nil {
			t.Fatal(err)
		}
		arrivals, err := workload.Stream(workload.DefaultStreamConfig(), rng.New(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunStream(m, arrivals, DefaultSimConfig(), rng.New(seed+2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var uniViol, legViol, uniMigr int
	for seed := uint64(0); seed < 5; seed++ {
		u := run(UniServerPolicy(), 100+seed)
		l := run(LegacyPolicy(), 100+seed)
		uniViol += u.SLAViolations
		legViol += l.SLAViolations
		uniMigr += u.Migrations
	}
	if uniMigr == 0 {
		t.Fatal("UniServer policy never migrated")
	}
	if uniViol >= legViol {
		t.Fatalf("UniServer violations (%d) not below legacy (%d)", uniViol, legViol)
	}
}

func TestRunStreamValidation(t *testing.T) {
	m, _, _ := twoNodeManager(t, UniServerPolicy())
	if _, err := RunStream(m, nil, SimConfig{}, rng.New(1)); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestRunStreamBasicAccounting(t *testing.T) {
	nodes := Fleet(4, 16, 64<<30, rng.New(7))
	m, err := NewManager(UniServerPolicy(), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := workload.Stream(workload.StreamConfig{
		N: 10, MeanGap: time.Minute, MeanLifetime: time.Hour, MinLifetime: 10 * time.Minute,
	}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSimConfig()
	cfg.Horizon = 4 * time.Hour
	res, err := RunStream(m, arrivals, cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled+res.Rejected < 10 {
		t.Fatalf("arrivals unaccounted: %+v", res)
	}
	if res.EnergyKWh <= 0 {
		t.Fatal("no energy integrated")
	}
	if res.Windows != int(cfg.Horizon/cfg.Window) {
		t.Fatalf("windows = %d", res.Windows)
	}
	if res.MeanAvailability <= 0 || res.MeanAvailability > 1 {
		t.Fatalf("availability = %v", res.MeanAvailability)
	}
}

func TestFleetConstruction(t *testing.T) {
	nodes := Fleet(30, 8, 16<<30, rng.New(3))
	if len(nodes) != 30 {
		t.Fatalf("fleet size = %d", len(nodes))
	}
	names := map[string]bool{}
	for _, n := range nodes {
		if names[n.Name] {
			t.Fatalf("duplicate node name %s", n.Name)
		}
		names[n.Name] = true
		if n.BaseFailProb <= 0 || n.BaseFailProb > 0.001 {
			t.Fatalf("fail prob %v out of range", n.BaseFailProb)
		}
	}
}
