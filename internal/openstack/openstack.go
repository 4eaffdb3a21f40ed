// Package openstack implements the cloud resource-management layer of
// Section 4.B: an OpenStack-style scheduler and node manager extended,
// as the paper proposes, with (a) a node reliability metric alongside
// the traditional availability, utilization and energy metrics,
// (b) failure prediction from node health data, and (c) proactive
// live migration of workloads off nodes predicted to fail —
// "proactively migrate the running workloads on the healthy nodes,
// which is critical to sustain high-availability especially for high
// value and user-facing workloads".
package openstack

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// SLA is the service-level agreement attached to a VM request. The
// paper: "the optimization of operations at the EOP is guided by the
// system requirements of the end-user for each VM, which are typically
// communicated through Service Level Agreements".
type SLA struct {
	Name string
	// MaxFailProb is the maximum acceptable per-window crash
	// probability of the hosting node.
	MaxFailProb float64
	// UserFacing marks high-value latency-sensitive services that are
	// prioritized during proactive migration.
	UserFacing bool
}

// Standard SLA tiers.
var (
	SLAGold   = SLA{Name: "gold", MaxFailProb: 0.0005, UserFacing: true}
	SLASilver = SLA{Name: "silver", MaxFailProb: 0.005, UserFacing: false}
	SLABronze = SLA{Name: "bronze", MaxFailProb: 0.05, UserFacing: false}
)

// SLAFor cycles arrival index i through the standard tiers — the VM
// mix shared by the stream simulator and the fleet engine.
func SLAFor(i int) SLA {
	switch i % 3 {
	case 0:
		return SLAGold
	case 1:
		return SLASilver
	default:
		return SLABronze
	}
}

// NodeMetrics are the per-node quantities the scheduler weighs. The
// reliability metric is UniServer's addition to the traditional trio.
type NodeMetrics struct {
	Availability   float64 // fraction of windows online
	UtilizationCPU float64 // vCPU utilization in [0,1]
	UtilizationMem float64 // memory utilization in [0,1]
	PowerW         float64 // current draw
	Reliability    float64 // 1 - predicted per-window crash probability
}

// Node is one schedulable UniServer host.
type Node struct {
	Name     string
	Cores    int
	MemBytes uint64
	// Mode is the node's current operating regime; deeper EOP lowers
	// power and raises the baseline failure probability.
	Mode vfr.Mode
	// BaseFailProb is the node's per-window crash probability at
	// nominal operation (hardware lottery + age).
	BaseFailProb float64
	// EOPRiskFactor scales BaseFailProb when running at extended
	// operating points.
	EOPRiskFactor float64
	// IdlePowerW / BusyPowerW bound the node's power draw; EOP modes
	// scale it down.
	IdlePowerW, BusyPowerW float64

	online       bool
	repairUntil  time.Duration
	usedVCPUs    int
	usedMem      uint64
	vms          map[string]*Instance
	windowsUp    int
	windowsTotal int
}

// Instance is a placed VM.
type Instance struct {
	Spec workload.VMSpec
	SLA  SLA
	Node string
}

// NewNode builds a host.
func NewNode(name string, cores int, memBytes uint64, baseFailProb float64) *Node {
	return &Node{
		Name:          name,
		Cores:         cores,
		MemBytes:      memBytes,
		Mode:          vfr.ModeNominal,
		BaseFailProb:  baseFailProb,
		EOPRiskFactor: 3,
		IdlePowerW:    45,
		BusyPowerW:    140,
		online:        true,
		vms:           make(map[string]*Instance),
	}
}

// Online reports whether the node is serving.
func (n *Node) Online() bool { return n.online }

// FailProb returns the node's per-window crash probability at its
// current mode: UniServer's predictor-informed reliability input.
func (n *Node) FailProb() float64 {
	p := n.BaseFailProb
	if n.Mode != vfr.ModeNominal {
		p *= n.EOPRiskFactor
	}
	if p > 1 {
		p = 1
	}
	return p
}

// powerScale returns the mode's power multiplier: high-performance
// shaves the voltage guardband (~25% dynamic power), low-power halves
// frequency with lower voltage (Section 6.D arithmetic).
func (n *Node) powerScale() float64 {
	switch n.Mode {
	case vfr.ModeHighPerformance:
		return 0.75
	case vfr.ModeLowPower:
		return 0.35
	default:
		return 1
	}
}

// Metrics returns the node's current metric vector.
func (n *Node) Metrics() NodeMetrics {
	util := 0.0
	if n.Cores > 0 {
		util = float64(n.usedVCPUs) / float64(n.Cores)
		if util > 1 {
			util = 1
		}
	}
	memUtil := 0.0
	if n.MemBytes > 0 {
		memUtil = float64(n.usedMem) / float64(n.MemBytes)
	}
	avail := 1.0
	if n.windowsTotal > 0 {
		avail = float64(n.windowsUp) / float64(n.windowsTotal)
	}
	power := (n.IdlePowerW + (n.BusyPowerW-n.IdlePowerW)*util) * n.powerScale()
	if !n.online {
		power = 0
	}
	return NodeMetrics{
		Availability:   avail,
		UtilizationCPU: util,
		UtilizationMem: memUtil,
		PowerW:         power,
		Reliability:    1 - n.FailProb(),
	}
}

// fits reports whether the node can host the request.
func (n *Node) fits(spec workload.VMSpec) bool {
	return n.online &&
		n.usedVCPUs+spec.VCPUs <= n.Cores*2 && // 2x oversubscription
		n.usedMem+spec.MemBytes <= n.MemBytes
}

// place installs an instance (caller has validated fit).
func (n *Node) place(inst *Instance) {
	n.vms[inst.Spec.Name] = inst
	n.usedVCPUs += inst.Spec.VCPUs
	n.usedMem += inst.Spec.MemBytes
	inst.Node = n.Name
}

// remove evicts an instance by name.
func (n *Node) remove(name string) (*Instance, bool) {
	inst, ok := n.vms[name]
	if !ok {
		return nil, false
	}
	delete(n.vms, name)
	n.usedVCPUs -= inst.Spec.VCPUs
	n.usedMem -= inst.Spec.MemBytes
	return inst, true
}

// Instances returns the node's instances sorted by name.
func (n *Node) Instances() []*Instance {
	out := make([]*Instance, 0, len(n.vms))
	for _, inst := range n.vms {
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// Policy selects and weighs candidate nodes.
type Policy struct {
	// ReliabilityWeight scales the reliability term; setting it to 0
	// recovers a traditional utilization/energy-only scheduler (the
	// ablation baseline).
	ReliabilityWeight float64
	// SpreadWeight rewards low-utilization nodes (load balancing).
	SpreadWeight float64
	// EnergyWeight rewards low-power nodes.
	EnergyWeight float64
	// EnforceSLA filters out nodes whose failure probability exceeds
	// the request's SLA bound.
	EnforceSLA bool
	// PredictiveMigration enables draining nodes whose predicted
	// failure probability crosses MigrationThreshold.
	PredictiveMigration bool
	MigrationThreshold  float64
}

// UniServerPolicy returns the paper's reliability-aware policy.
func UniServerPolicy() Policy {
	return Policy{
		ReliabilityWeight:   4,
		SpreadWeight:        1,
		EnergyWeight:        1,
		EnforceSLA:          true,
		PredictiveMigration: true,
		MigrationThreshold:  0.005,
	}
}

// LegacyPolicy returns the pre-UniServer baseline: no reliability
// term, no SLA filter, no proactive migration.
func LegacyPolicy() Policy {
	return Policy{ReliabilityWeight: 0, SpreadWeight: 1, EnergyWeight: 1}
}

// Manager is the cloud control plane over a fleet of nodes.
type Manager struct {
	Policy Policy
	// order is the fleet as given to NewManager: a node's position in
	// it is its position in a HealthColumn. nodes maps each name to
	// that position.
	order []*Node
	nodes map[string]int
	// sorted is the fleet in name order, built once: the node set is
	// fixed at construction, and every scheduling walk (which must be
	// deterministic, hence ordered) reuses this slice instead of
	// sorting per call. pos[j] is the position of sorted[j].
	sorted []*Node
	pos    []int

	// StepFleet's scratch: its one-window column and the positions the
	// current list has named.
	named *HealthColumn
	seen  []bool

	// Stats.
	Scheduled     int
	Rejected      int
	Migrations    int
	SLAViolations int
	// UserFacingViolations counts SLA violations that hit user-facing
	// (gold) instances — the losses the paper's proactive migration is
	// specifically meant to prevent.
	UserFacingViolations int
	Crashes              int
	EnergyJ              float64
}

// NewManager returns a manager over the nodes.
func NewManager(policy Policy, nodes ...*Node) (*Manager, error) {
	if len(nodes) == 0 {
		return nil, errors.New("openstack: manager needs nodes")
	}
	m := &Manager{
		Policy: policy,
		order:  append([]*Node(nil), nodes...),
		nodes:  make(map[string]int, len(nodes)),
		sorted: make([]*Node, len(nodes)),
		pos:    make([]int, len(nodes)),
	}
	for i, n := range nodes {
		if _, dup := m.nodes[n.Name]; dup {
			return nil, fmt.Errorf("openstack: duplicate node %q", n.Name)
		}
		m.nodes[n.Name] = i
		m.pos[i] = i
	}
	sort.Slice(m.pos, func(a, b int) bool { return nodes[m.pos[a]].Name < nodes[m.pos[b]].Name })
	for j, i := range m.pos {
		m.sorted[j] = nodes[i]
	}
	return m, nil
}

// score weighs a candidate node for placement.
func (m *Manager) score(n *Node) float64 {
	met := n.Metrics()
	return m.Policy.ReliabilityWeight*met.Reliability +
		m.Policy.SpreadWeight*(1-met.UtilizationCPU) +
		m.Policy.EnergyWeight*(1-met.PowerW/150)
}

// Schedule places a VM request, returning the chosen node name.
// Filtering: capacity, liveness, and (if enforced) the SLA's failure
// bound; weighing: the policy's weighted metric sum.
func (m *Manager) Schedule(spec workload.VMSpec, sla SLA) (string, error) {
	if err := spec.Validate(); err != nil {
		m.Rejected++
		return "", err
	}
	var best *Node
	bestScore := 0.0
	for _, n := range m.sorted {
		if !n.fits(spec) {
			continue
		}
		if m.Policy.EnforceSLA && n.FailProb() > sla.MaxFailProb {
			continue
		}
		if s := m.score(n); best == nil || s > bestScore {
			best, bestScore = n, s
		}
	}
	if best == nil {
		m.Rejected++
		return "", fmt.Errorf("openstack: no feasible node for %q (sla %s)", spec.Name, sla.Name)
	}
	best.place(&Instance{Spec: spec, SLA: sla})
	m.Scheduled++
	return best.Name, nil
}

// Terminate removes a VM from whichever node hosts it.
func (m *Manager) Terminate(name string) bool {
	for _, n := range m.sorted {
		if _, ok := n.remove(name); ok {
			return true
		}
	}
	return false
}

// migrate moves an instance to the best other feasible node; returns
// false when no target exists.
func (m *Manager) migrate(inst *Instance, from *Node) bool {
	var best *Node
	bestScore := 0.0
	for _, n := range m.sorted {
		if n.Name == from.Name || !n.fits(inst.Spec) {
			continue
		}
		if m.Policy.EnforceSLA && n.FailProb() > inst.SLA.MaxFailProb {
			continue
		}
		if s := m.score(n); best == nil || s > bestScore {
			best, bestScore = n, s
		}
	}
	if best == nil {
		return false
	}
	from.remove(inst.Spec.Name)
	best.place(inst)
	m.Migrations++
	return true
}

// ProactiveMigration drains nodes whose predicted failure probability
// crosses the policy threshold, user-facing instances first. It
// returns the number of instances moved.
func (m *Manager) ProactiveMigration() int {
	if !m.Policy.PredictiveMigration {
		return 0
	}
	moved := 0
	for _, n := range m.sorted {
		if !n.online || n.FailProb() < m.Policy.MigrationThreshold {
			continue
		}
		insts := n.Instances()
		// User-facing first.
		sort.SliceStable(insts, func(i, j int) bool {
			return insts[i].SLA.UserFacing && !insts[j].SLA.UserFacing
		})
		for _, inst := range insts {
			if m.migrate(inst, n) {
				moved++
			}
		}
	}
	return moved
}

// Tick advances the fleet by one observation window of the given
// duration: node crash lottery, repairs, availability accounting and
// energy integration. Crashed nodes lose their instances (each loss is
// an SLA violation) and come back after repair.
func (m *Manager) Tick(window time.Duration, now time.Duration, repair time.Duration, src *rng.Source) {
	m.resolveWindow(window, now, repair, func(_ int, n *Node) bool {
		return src.Bernoulli(n.FailProb())
	}, nil)
}

// resolveWindow is the single per-window node-resolution loop shared
// by Tick and StepWindow: repairs complete, availability and energy
// are accounted, and nodes for which crashed reports true go down for
// the repair interval, losing their instances (each loss is an SLA
// violation). Nodes resolve in sorted order; crashed is only called
// for online nodes, in that order, with the node's index in m.sorted.
// stats, when non-nil, receives the epoch's counters.
func (m *Manager) resolveWindow(window, now, repair time.Duration, crashed func(int, *Node) bool, stats *FleetStepStats) {
	for j, n := range m.sorted {
		n.windowsTotal++
		if !n.online {
			if now >= n.repairUntil {
				n.online = true
			} else {
				continue
			}
		}
		n.windowsUp++
		met := n.Metrics()
		m.EnergyJ += met.PowerW * window.Seconds()
		if stats != nil {
			stats.OnlineNodes++
			stats.PowerW += met.PowerW
		}
		if crashed(j, n) {
			m.Crashes++
			if stats != nil {
				stats.Crashes++
			}
			n.online = false
			n.repairUntil = now + repair
			for _, inst := range n.Instances() {
				n.remove(inst.Spec.Name)
				m.SLAViolations++
				if stats != nil {
					stats.EvictedVMs++
				}
				if inst.SLA.UserFacing {
					m.UserFacingViolations++
				}
			}
		}
	}
}
