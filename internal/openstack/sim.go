package openstack

import (
	"errors"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/workload"
)

// SimConfig shapes a VM-stream simulation.
type SimConfig struct {
	// Window is the observation/scheduling window length.
	Window time.Duration
	// Repair is how long a crashed node stays offline.
	Repair time.Duration
	// Horizon bounds the simulation length.
	Horizon time.Duration
	// DegradeProb is the per-window probability that some online node
	// starts behaving erratically (aging, marginal EOP): its failure
	// probability is multiplied by DegradeFactor. The HealthLog/
	// Predictor pipeline surfaces this as a raised FailProb, which the
	// proactive-migration policy acts on.
	DegradeProb   float64
	DegradeFactor float64
}

// DefaultSimConfig returns a day-long simulation with 5-minute windows.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Window:        5 * time.Minute,
		Repair:        30 * time.Minute,
		Horizon:       24 * time.Hour,
		DegradeProb:   0.03,
		DegradeFactor: 40,
	}
}

// SimResult summarizes a stream simulation.
type SimResult struct {
	Windows              int
	Scheduled            int
	Rejected             int
	Migrations           int
	SLAViolations        int
	UserFacingViolations int
	Crashes              int
	EnergyKWh            float64
	// MeanAvailability averages the per-node availability.
	MeanAvailability float64
}

// StreamCursor replays a VM arrival stream against a manager, one
// observation window at a time: due arrivals are scheduled with the
// standard SLA mix, expired VMs terminate. It is the single
// arrival/departure bookkeeping shared by the stream simulator and
// the fleet engine, so the two stay behaviorally identical.
type StreamCursor struct {
	arrivals   []workload.Arrival
	next       int
	departures []departure
}

type departure struct {
	at   time.Duration
	name string
}

// NewStreamCursor returns a cursor at the start of the stream.
func NewStreamCursor(arrivals []workload.Arrival) *StreamCursor {
	return &StreamCursor{arrivals: arrivals}
}

// Advance schedules the arrivals due at now (failed placements are
// dropped, counted by the manager as rejections) and terminates the
// VMs whose lifetime has expired.
func (c *StreamCursor) Advance(m *Manager, now time.Duration) {
	for c.next < len(c.arrivals) && c.arrivals[c.next].At <= now {
		a := c.arrivals[c.next]
		if _, err := m.Schedule(a.Spec, SLAFor(c.next)); err == nil {
			c.departures = append(c.departures, departure{at: now + a.Lifetime, name: a.Spec.Name})
		}
		c.next++
	}
	kept := c.departures[:0]
	for _, d := range c.departures {
		if d.at <= now {
			m.Terminate(d.name)
			continue
		}
		kept = append(kept, d)
	}
	c.departures = kept
}

// RunStream drives an arrival stream through the manager: VMs arrive
// and terminate on schedule, nodes degrade, crash and repair, and the
// policy's proactive migration runs every window. Crashed-node repairs
// include re-characterization, restoring the node's original failure
// probability (the StressLog's role in the full system).
func RunStream(m *Manager, arrivals []workload.Arrival, cfg SimConfig, src *rng.Source) (SimResult, error) {
	if cfg.Window <= 0 || cfg.Horizon <= 0 {
		return SimResult{}, errors.New("openstack: sim needs positive window and horizon")
	}
	cursor := NewStreamCursor(arrivals)
	original := make(map[string]float64, len(m.order))
	for _, n := range m.order {
		original[n.Name] = n.BaseFailProb
	}

	res := SimResult{}
	for now := time.Duration(0); now < cfg.Horizon; now += cfg.Window {
		res.Windows++
		cursor.Advance(m, now)

		// Degradation lottery: an online node turns erratic.
		if src.Bernoulli(cfg.DegradeProb) {
			online := make([]*Node, 0, len(m.order))
			for _, n := range m.sorted {
				if n.Online() {
					online = append(online, n)
				}
			}
			if len(online) > 0 {
				victim := online[src.Intn(len(online))]
				victim.BaseFailProb *= cfg.DegradeFactor
				if victim.BaseFailProb > 0.5 {
					victim.BaseFailProb = 0.5
				}
			}
		}

		// Proactive migration sees the raised FailProb before the
		// crash lottery of this window resolves.
		res.Migrations += m.ProactiveMigration()

		wasOffline := map[string]bool{}
		for _, n := range m.sorted {
			wasOffline[n.Name] = !n.Online()
		}
		m.Tick(cfg.Window, now, cfg.Repair, src)

		// Nodes returning from repair have been re-characterized.
		for _, n := range m.sorted {
			if wasOffline[n.Name] && n.Online() {
				n.BaseFailProb = original[n.Name]
			}
		}
	}

	res.Scheduled = m.Scheduled
	res.Rejected = m.Rejected
	res.SLAViolations = m.SLAViolations
	res.UserFacingViolations = m.UserFacingViolations
	res.Crashes = m.Crashes
	res.EnergyKWh = m.EnergyJ / 3.6e6

	res.MeanAvailability = m.MeanAvailability()
	return res, nil
}

// Fleet builds a homogeneous fleet of n nodes with mild hardware
// lottery on the base failure probability.
func Fleet(n int, cores int, memBytes uint64, src *rng.Source) []*Node {
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		base := 0.0004 * (0.5 + src.Float64()) // 0.0002..0.0006 per window
		nodes[i] = NewNode(nodeName(i), cores, memBytes, base)
	}
	return nodes
}

func nodeName(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	return "node-" + string(letters[i%26]) + string('0'+byte(i/26%10))
}
