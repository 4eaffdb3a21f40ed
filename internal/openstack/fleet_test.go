package openstack

import (
	"fmt"
	"testing"
	"time"

	"uniserver/internal/rng"
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
	a, b := m.order[m.nodes["n-0000"]], m.order[m.nodes["n-0001"]]
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

// TestStepWindowAllocationFree fences the replay's per-window cost: a
// full 1,000-node health column with no crash and no node over the
// migration threshold steps without allocating.
func TestStepWindowAllocationFree(t *testing.T) {
	const n, windows = 1000, 64
	m := stepFleetManager(t, n)
	health := NewHealthColumn(n, windows)
	for i := 0; i < n; i++ {
		for w := 0; w < windows; w++ {
			health.Set(i, w, 0.001, false)
		}
	}
	w := 0
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := m.StepWindow(health, w%windows, time.Minute, time.Duration(w)*time.Minute, time.Hour); err != nil {
			t.Fatal(err)
		}
		w++
	})
	if allocs != 0 {
		t.Fatalf("StepWindow allocated %v times per step over %d nodes; want 0", allocs, n)
	}
}

// stepByName is the name-keyed window step written out with no
// position anywhere: reported nodes take their failure probability,
// proactive migration runs, and the window resolves with the reports'
// crash flags looked up by name. It is the reference the positional
// step must reproduce.
func stepByName(m *Manager, health []NodeHealth, window, now, repair time.Duration) FleetStepStats {
	var stats FleetStepStats
	byName := map[string]*Node{}
	for _, n := range m.sorted {
		byName[n.Name] = n
	}
	crashed := map[string]bool{}
	for _, h := range health {
		byName[h.Name].BaseFailProb = h.FailProb
		crashed[h.Name] = h.Crashed
	}
	stats.Migrations = m.ProactiveMigration()
	m.resolveWindow(window, now, repair, func(_ int, n *Node) bool { return crashed[n.Name] }, &stats)
	return stats
}

// TestStepWindowMatchesStepFleet is the property behind the fleet
// replay's positional step: over generated health sequences — reports
// in any list order, partial lists, crashes, repairs, migrations and
// new placements — StepWindow over a column, StepFleet over the same
// reports by name and the reference stepByName leave identical stats
// and manager state. The nodes are named "uniserver-%02d" in
// construction order, so past 100 nodes the name order
// (uniserver-100 < uniserver-11) is not the position order the column
// uses.
func TestStepWindowMatchesStepFleet(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		src := rng.New(seed)
		n := 101 + src.Intn(40)
		windows := 1 + src.Intn(70)
		build := func() *Manager {
			nodes := make([]*Node, n)
			for i := range nodes {
				nodes[i] = NewNode(fmt.Sprintf("uniserver-%02d", i), 4, 16<<30, 0.0001)
			}
			m, err := NewManager(UniServerPolicy(), nodes...)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		pos, named, ref := build(), build(), build()
		health := NewHealthColumn(n, windows)
		vm := 0
		for w := 0; w < windows; w++ {
			now := time.Duration(w) * time.Minute
			for k := src.Intn(4); k > 0; k-- {
				s, sla := spec(fmt.Sprintf("vm-%d", vm), 1+src.Intn(4), 2<<30), SLAFor(vm)
				_, errP := pos.Schedule(s, sla)
				_, errN := named.Schedule(s, sla)
				_, errR := ref.Schedule(s, sla)
				if (errP == nil) != (errN == nil) || (errP == nil) != (errR == nil) {
					t.Fatalf("seed %d window %d: placement diverged: %v, %v, %v", seed, w, errP, errN, errR)
				}
				vm++
			}
			// Each node reports with probability 3/4; an unreported node
			// keeps its failure probability and does not crash.
			var list []NodeHealth
			for i, node := range pos.order {
				if src.Intn(4) == 0 {
					health.Set(i, w, node.BaseFailProb, false)
					continue
				}
				h := NodeHealth{Name: node.Name, FailProb: src.Range(0, 0.01), Crashed: src.Intn(20) == 0}
				health.Set(i, w, h.FailProb, h.Crashed)
				list = append(list, h)
			}
			src.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
			got, err := pos.StepWindow(health, w, time.Minute, now, 5*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			want, err := named.StepFleet(list, time.Minute, now, 5*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if ref := stepByName(ref, list, time.Minute, now, 5*time.Minute); got != want || got != ref {
				t.Fatalf("seed %d window %d: stats %+v by StepWindow, %+v by StepFleet, %+v by name", seed, w, got, want, ref)
			}
			a, b, c := managerState(pos), managerState(named), managerState(ref)
			if a != c {
				t.Fatalf("seed %d window %d: state diverged:\n--- StepWindow ---\n%s--- by name ---\n%s", seed, w, a, c)
			}
			if b != c {
				t.Fatalf("seed %d window %d: state diverged:\n--- StepFleet ---\n%s--- by name ---\n%s", seed, w, b, c)
			}
		}
		if pos.Crashes == 0 || pos.Migrations == 0 {
			t.Fatalf("seed %d: %d crashes and %d migrations; the sequence should exercise both", seed, pos.Crashes, pos.Migrations)
		}
	}
}

// TestStepWindowRejectsMisshapenColumn: a column for another fleet size
// or a window outside it is an error and changes nothing.
func TestStepWindowRejectsMisshapenColumn(t *testing.T) {
	m := stepFleetManager(t, 4)
	before := managerState(m)
	for _, tc := range []struct {
		h *HealthColumn
		w int
	}{
		{NewHealthColumn(3, 2), 0},
		{NewHealthColumn(4, 2), 2},
		{NewHealthColumn(4, 2), -1},
	} {
		if _, err := m.StepWindow(tc.h, tc.w, time.Minute, 0, time.Hour); err == nil {
			t.Errorf("window %d of a %d-node column accepted by a 4-node manager", tc.w, tc.h.nodes)
		}
	}
	if got := managerState(m); got != before {
		t.Fatalf("rejected steps changed the manager:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
}
