package openstack

import (
	"fmt"
	"testing"
	"time"
)

func TestStepFleetValidation(t *testing.T) {
	m, _, _ := twoNodeManager(t, UniServerPolicy())
	if _, err := m.StepFleet([]NodeHealth{{Name: "ghost"}}, time.Minute, 0, time.Hour); err == nil {
		t.Fatal("health report for unknown node accepted")
	}
	dup := []NodeHealth{{Name: "node-a"}, {Name: "node-a"}}
	if _, err := m.StepFleet(dup, time.Minute, 0, time.Hour); err == nil {
		t.Fatal("duplicate health report accepted")
	}
}

func TestStepFleetHealthDrivenCrash(t *testing.T) {
	m, a, b := twoNodeManager(t, LegacyPolicy())
	if _, err := m.Schedule(spec("vm-a", 2, 4<<30), SLAGold); err != nil {
		t.Fatal(err)
	}
	// vm lands on one of the nodes; crash that node via health.
	victim, other := a, b
	if len(b.Instances()) > 0 {
		victim, other = b, a
	}
	health := []NodeHealth{
		{Name: victim.Name, FailProb: 0.2, Crashed: true},
		{Name: other.Name, FailProb: 0.0001},
	}
	stats, err := m.StepFleet(health, 5*time.Minute, 0, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crashes != 1 || stats.EvictedVMs != 1 {
		t.Fatalf("stats = %+v; want 1 crash, 1 eviction", stats)
	}
	if victim.Online() {
		t.Fatal("crashed node still online")
	}
	if m.SLAViolations != 1 || m.UserFacingViolations != 1 {
		t.Fatalf("violations = %d/%d; want 1/1", m.SLAViolations, m.UserFacingViolations)
	}
	// The repair interval elapses; the node comes back online and the
	// updated FailProb landed in the reliability metric.
	stats, err = m.StepFleet(nil, 5*time.Minute, 30*time.Minute, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OnlineNodes != 2 {
		t.Fatalf("online = %d after repair; want 2", stats.OnlineNodes)
	}
	if victim.BaseFailProb != 0.2 {
		t.Fatalf("health FailProb not applied: %v", victim.BaseFailProb)
	}
}

func TestStepFleetProactiveMigrationSeesHealthFirst(t *testing.T) {
	m, a, b := twoNodeManager(t, UniServerPolicy())
	if _, err := m.Schedule(spec("vm-a", 2, 4<<30), SLASilver); err != nil {
		t.Fatal(err)
	}
	hosting, spare := a, b
	if len(b.Instances()) > 0 {
		hosting, spare = b, a
	}
	// The hosting node's predicted failure probability jumps above the
	// migration threshold AND it crashes this same window. Proactive
	// migration must move the VM off before the crash resolves, so no
	// SLA violation occurs.
	health := []NodeHealth{
		{Name: hosting.Name, FailProb: 0.05, Crashed: true},
		{Name: spare.Name, FailProb: 0.0001},
	}
	stats, err := m.StepFleet(health, 5*time.Minute, 0, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Migrations != 1 {
		t.Fatalf("migrations = %d; want 1", stats.Migrations)
	}
	if stats.EvictedVMs != 0 || m.SLAViolations != 0 {
		t.Fatalf("vm lost despite proactive migration: %+v", stats)
	}
	if len(spare.Instances()) != 1 {
		t.Fatal("vm did not land on the spare node")
	}
}

func TestStepFleetDeterministicEnergy(t *testing.T) {
	run := func() float64 {
		m, _, _ := twoNodeManager(t, LegacyPolicy())
		for w := 0; w < 10; w++ {
			now := time.Duration(w) * 5 * time.Minute
			if _, err := m.StepFleet([]NodeHealth{
				{Name: "node-a", FailProb: 0.001, Crashed: w == 3},
				{Name: "node-b", FailProb: 0.001},
			}, 5*time.Minute, now, 15*time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		return m.EnergyJ
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("fleet stepping not deterministic: %v != %v", a, b)
	}
}

// stepFleetManager returns a UniServer-policy manager over n nodes
// named "n-0000"… with one bronze VM placed per two nodes, so energy
// depends on placement.
func stepFleetManager(t *testing.T, n int) *Manager {
	t.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(fmt.Sprintf("n-%04d", i), 8, 32<<30, 0.0001)
	}
	m, err := NewManager(UniServerPolicy(), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/2; i++ {
		if _, err := m.Schedule(spec(fmt.Sprintf("vm-%d", i), 2, 4<<30), SLABronze); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// managerState renders everything a step can change: the counters,
// the energy and availability bits, and each node's health, liveness
// and load.
func managerState(m *Manager) string {
	s := fmt.Sprintf("sched=%d rej=%d mig=%d sla=%d uf=%d crash=%d energy=%x avail=%x\n",
		m.Scheduled, m.Rejected, m.Migrations, m.SLAViolations, m.UserFacingViolations,
		m.Crashes, m.EnergyJ, m.MeanAvailability())
	for _, n := range m.sorted {
		s += fmt.Sprintf("%s fp=%x online=%t vms=%d up=%d/%d\n",
			n.Name, n.FailProb(), n.online, len(n.vms), n.windowsUp, n.windowsTotal)
	}
	return s
}

// TestStepFleetBadListLeavesManagerUnchanged: a report list that fails
// validation part-way — on an unknown or a duplicate name — changes
// nothing, even though the valid reports before the bad one were
// already staged on their nodes. The reports around the bad name would
// crash n-0000 and push n-0001 over the migration threshold if any of
// them leaked into this step or the next.
func TestStepFleetBadListLeavesManagerUnchanged(t *testing.T) {
	const n = 6
	for _, tc := range []struct {
		name string
		bad  NodeHealth
	}{
		{"unknown", NodeHealth{Name: "ghost"}},
		{"duplicate", NodeHealth{Name: "n-0000", FailProb: 0.3, Crashed: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, fresh := stepFleetManager(t, n), stepFleetManager(t, n)
			before := managerState(m)
			bad := []NodeHealth{
				{Name: "n-0000", FailProb: 0.3, Crashed: true},
				{Name: "n-0001", FailProb: 0.2},
				tc.bad,
				{Name: "n-0002", FailProb: 0.1, Crashed: true},
			}
			if _, err := m.StepFleet(bad, time.Minute, 0, time.Hour); err == nil {
				t.Fatal("bad report list accepted")
			}
			if got := managerState(m); got != before {
				t.Fatalf("rejected step changed the manager:\n--- before ---\n%s--- after ---\n%s", before, got)
			}
			valid := []NodeHealth{{Name: "n-0003", FailProb: 0.002}, {Name: "n-0004", FailProb: 0.001}}
			for w := 0; w < 3; w++ {
				now := time.Duration(w) * time.Minute
				got, err := m.StepFleet(valid, time.Minute, now, time.Hour)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.StepFleet(valid, time.Minute, now, time.Hour)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("window %d: stats %+v after a rejected step, %+v on a fresh manager", w, got, want)
				}
			}
			if got, want := managerState(m), managerState(fresh); got != want {
				t.Fatalf("rejected step leaked into later steps:\n--- fresh ---\n%s--- after rejection ---\n%s", want, got)
			}
		})
	}
}

// TestStepFleetPartialList: a list naming some nodes updates only
// those, and a report does not outlive its step — a node crashed by one
// step's report is not crashed again by a later step that omits it.
func TestStepFleetPartialList(t *testing.T) {
	m := stepFleetManager(t, 4)
	a, b := m.nodes["n-0000"], m.nodes["n-0001"]
	untouched := map[string]float64{}
	for _, n := range m.sorted[1:] {
		untouched[n.Name] = n.BaseFailProb
	}
	if _, err := m.StepFleet([]NodeHealth{{Name: a.Name, FailProb: 0.003, Crashed: true}},
		time.Minute, 0, time.Minute); err != nil {
		t.Fatal(err)
	}
	if a.BaseFailProb != 0.003 || a.Online() {
		t.Fatalf("named node: fail prob %v, online %t; want 0.003, offline", a.BaseFailProb, a.Online())
	}
	for _, n := range m.sorted[1:] {
		if n.BaseFailProb != untouched[n.Name] || !n.Online() {
			t.Fatalf("unnamed node %s changed: fail prob %v, online %t", n.Name, n.BaseFailProb, n.Online())
		}
	}
	// Next window: a is repaired and unnamed; only b reports.
	if _, err := m.StepFleet([]NodeHealth{{Name: b.Name, FailProb: 0.004}},
		time.Minute, time.Minute, time.Minute); err != nil {
		t.Fatal(err)
	}
	if !a.Online() || m.Crashes != 1 {
		t.Fatalf("a stale crash report applied again: online %t, crashes %d", a.Online(), m.Crashes)
	}
	if a.BaseFailProb != 0.003 || b.BaseFailProb != 0.004 {
		t.Fatalf("fail probs %v / %v; want 0.003 / 0.004", a.BaseFailProb, b.BaseFailProb)
	}
}

// TestStepFleetAllocationFree fences the replay's per-window cost: a
// full 1,000-node report list with no crash and no node over the
// migration threshold steps without allocating.
func TestStepFleetAllocationFree(t *testing.T) {
	const n = 1000
	m := stepFleetManager(t, n)
	health := make([]NodeHealth, n)
	for i, node := range m.sorted {
		health[i] = NodeHealth{Name: node.Name, FailProb: 0.001, Correctable: i % 3}
	}
	w := 0
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := m.StepFleet(health, time.Minute, time.Duration(w)*time.Minute, time.Hour); err != nil {
			t.Fatal(err)
		}
		w++
	})
	if allocs != 0 {
		t.Fatalf("StepFleet allocated %v times per step over %d nodes; want 0", allocs, n)
	}
}
