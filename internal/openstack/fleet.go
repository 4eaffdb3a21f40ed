package openstack

import (
	"fmt"
	"time"
)

// NodeHealth is the per-epoch health vector one node's ecosystem
// simulation feeds into the cloud layer: the paper's "failure
// prediction from node health data" input, produced by the HealthLog/
// Predictor pipeline rather than by the manager's own crash lottery.
// A fleet engine collects one NodeHealth per node per barrier epoch
// (the reports may be produced concurrently, but are merged in node
// order before they reach the manager, so the outcome is independent
// of worker scheduling).
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
	// Correctable and ThermalAlarm ride along for fleet observability.
	Correctable  int
	ThermalAlarm int
}

// FleetStepStats summarizes one barrier-synchronized fleet epoch.
type FleetStepStats struct {
	Migrations  int
	Crashes     int
	EvictedVMs  int
	OnlineNodes int
	PowerW      float64
}

// StepFleet advances the fleet by one observation window driven by
// externally simulated node health instead of the manager's internal
// crash lottery (compare Tick). The sequence per epoch is the paper's
// Section 4.B loop: (1) node health lands in the scheduler's
// reliability metric, (2) proactive migration drains nodes predicted
// to fail, (3) the window resolves — health-reported crashes take
// their nodes down, repairs complete, availability and energy are
// accounted. It is fully deterministic: same health sequence, same
// outcome, regardless of how many goroutines produced the reports.
func (m *Manager) StepFleet(health []NodeHealth, window, now, repair time.Duration) (FleetStepStats, error) {
	var stats FleetStepStats
	// Each report is staged on its node under this step's epoch. A
	// node's stamp from an earlier step — including one that failed
	// validation part-way — never matches a later epoch, and a second
	// report for the same node in this step is caught by its own stamp.
	// Nothing outside the staging fields changes until every report has
	// validated.
	m.healthEpoch++
	epoch := m.healthEpoch
	for _, h := range health {
		n, ok := m.nodes[h.Name]
		if !ok {
			return stats, fmt.Errorf("openstack: health report for unknown node %q", h.Name)
		}
		if n.healthEpoch == epoch {
			return stats, fmt.Errorf("openstack: duplicate health report for node %q", h.Name)
		}
		n.healthEpoch, n.healthFailProb, n.healthCrashed = epoch, h.FailProb, h.Crashed
	}

	// (1) The predictor's live failure probability becomes the node's
	// reliability input before any placement decision this window.
	// Offline nodes update too: their simulation keeps characterizing,
	// and a repaired node must rejoin the pool with its current health,
	// not a repair-interval-stale probability.
	for _, n := range m.sorted {
		if n.healthEpoch == epoch {
			n.BaseFailProb = n.healthFailProb
		}
	}

	// (2) Proactive migration sees the updated health before the
	// window's crashes resolve — that ordering is the whole point of
	// predictive draining.
	stats.Migrations = m.ProactiveMigration()

	// (3) Resolve the window: repairs, accounting, health-driven
	// crashes — the node simulation's crash is ground truth, so the
	// resolution loop runs with the health report as its crash
	// predicate instead of Tick's lottery.
	m.resolveWindow(window, now, repair, func(n *Node) bool {
		return n.healthEpoch == epoch && n.healthCrashed
	}, &stats)
	return stats, nil
}

// MeanAvailability averages the per-node availability across the
// fleet. It sums in sorted node order: float addition is
// non-associative, and this value feeds deterministic fingerprints.
func (m *Manager) MeanAvailability() float64 {
	if len(m.nodes) == 0 {
		return 0
	}
	total := 0.0
	for _, n := range m.sorted {
		total += n.Metrics().Availability
	}
	return total / float64(len(m.nodes))
}
