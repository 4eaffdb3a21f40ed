package openstack

import (
	"fmt"
	"time"
)

// NodeHealth is one node's health report for one window, by name: the
// paper's "failure prediction from node health data" input, produced
// by the HealthLog/Predictor pipeline rather than by the manager's own
// crash lottery. StepFleet takes a list of them.
type NodeHealth struct {
	// Name identifies the managed node.
	Name string
	// FailProb is the Predictor's current per-window crash probability
	// at the node's live operating point. It replaces the node's
	// BaseFailProb, so scheduling and proactive migration track the
	// node's drifting health.
	FailProb float64
	// Crashed reports that the node's own simulation crashed this
	// window. The manager treats it as ground truth: the node goes
	// offline for the repair interval and its instances are lost.
	Crashed bool
}

// HealthColumn holds a fleet's health reports for a run of windows by
// position: entry (i, w) is window w's report for the i-th node given
// to NewManager. It is node-major — node i's windows are contiguous,
// and its crash flags fill whole bitset words of their own — so the
// goroutines simulating different nodes can Set their rows
// concurrently without sharing a word, and it is allocated once for
// the whole run.
type HealthColumn struct {
	nodes, windows int
	words          int       // crash-bitset words per node
	failProb       []float64 // [i*windows+w]
	crashed        []uint64  // node i's window bits in words [i*words, (i+1)*words)
}

// NewHealthColumn returns a column of nodes × windows reports, every
// one zero (fail probability 0, not crashed).
func NewHealthColumn(nodes, windows int) *HealthColumn {
	words := (windows + 63) / 64
	return &HealthColumn{
		nodes:    nodes,
		windows:  windows,
		words:    words,
		failProb: make([]float64, nodes*windows),
		crashed:  make([]uint64, nodes*words),
	}
}

// Set records node i's report for window w. Calls for different nodes
// may run concurrently; calls for one node may not.
func (c *HealthColumn) Set(i, w int, failProb float64, crashed bool) {
	c.failProb[i*c.windows+w] = failProb
	// The crash word is written only when its bit changes: neighbouring
	// nodes' words share a cache line, and a store on every Set would
	// bounce that line between the goroutines filling them.
	word, bit := &c.crashed[i*c.words+w/64], uint64(1)<<(w%64)
	if crashed {
		*word |= bit
	} else if *word&bit != 0 {
		*word &^= bit
	}
}

// crashedAt reports node i's crash flag for window w.
func (c *HealthColumn) crashedAt(i, w int) bool {
	return c.crashed[i*c.words+w/64]&(1<<(w%64)) != 0
}

// FleetStepStats summarizes one barrier-synchronized fleet epoch.
type FleetStepStats struct {
	Migrations  int
	Crashes     int
	EvictedVMs  int
	OnlineNodes int
	PowerW      float64
}

// StepWindow advances the fleet by one observation window driven by
// window w of the externally simulated health column instead of the
// manager's internal crash lottery (compare Tick). The sequence is the
// paper's Section 4.B loop: (1) every node's health lands in the
// scheduler's reliability metric, (2) proactive migration drains nodes
// predicted to fail, (3) the window resolves — health-reported crashes
// take their nodes down, repairs complete, availability and energy are
// accounted. It is fully deterministic: same health, same outcome,
// regardless of how many goroutines filled the column.
func (m *Manager) StepWindow(h *HealthColumn, w int, window, now, repair time.Duration) (FleetStepStats, error) {
	var stats FleetStepStats
	if h.nodes != len(m.order) || w < 0 || w >= h.windows {
		return stats, fmt.Errorf("openstack: window %d of a %d-node × %d-window health column for a %d-node manager",
			w, h.nodes, h.windows, len(m.order))
	}
	// (1) The predictor's live failure probability becomes the node's
	// reliability input before any placement decision this window.
	// Offline nodes update too: their simulation keeps characterizing,
	// and a repaired node must rejoin the pool with its current health,
	// not a repair-interval-stale probability.
	for i, n := range m.order {
		n.BaseFailProb = h.failProb[i*h.windows+w]
	}

	// (2) Proactive migration sees the updated health before the
	// window's crashes resolve — that ordering is the whole point of
	// predictive draining.
	stats.Migrations = m.ProactiveMigration()

	// (3) Resolve the window: repairs, accounting, health-driven
	// crashes — the node simulation's crash is ground truth, so the
	// resolution loop runs with the health report as its crash
	// predicate instead of Tick's lottery.
	m.resolveWindow(window, now, repair, func(j int, _ *Node) bool {
		return h.crashedAt(m.pos[j], w)
	}, &stats)
	return stats, nil
}

// StepFleet is StepWindow over a list of reports by name. A node the
// list does not name keeps its failure probability and does not crash.
// A list naming an unknown node, or one node twice, is an error and
// leaves the manager unchanged.
func (m *Manager) StepFleet(health []NodeHealth, window, now, repair time.Duration) (FleetStepStats, error) {
	if m.named == nil {
		m.named = NewHealthColumn(len(m.order), 1)
		m.seen = make([]bool, len(m.order))
	}
	clear(m.seen)
	for i, n := range m.order {
		m.named.Set(i, 0, n.BaseFailProb, false)
	}
	for _, h := range health {
		i, ok := m.nodes[h.Name]
		if !ok {
			return FleetStepStats{}, fmt.Errorf("openstack: health report for unknown node %q", h.Name)
		}
		if m.seen[i] {
			return FleetStepStats{}, fmt.Errorf("openstack: duplicate health report for node %q", h.Name)
		}
		m.seen[i] = true
		m.named.Set(i, 0, h.FailProb, h.Crashed)
	}
	return m.StepWindow(m.named, 0, window, now, repair)
}

// MeanAvailability averages the per-node availability across the
// fleet. It sums in sorted node order: float addition is
// non-associative, and this value feeds deterministic fingerprints.
func (m *Manager) MeanAvailability() float64 {
	if len(m.sorted) == 0 {
		return 0
	}
	total := 0.0
	for _, n := range m.sorted {
		total += n.Metrics().Availability
	}
	return total / float64(len(m.sorted))
}
