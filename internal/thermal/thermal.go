// Package thermal models die and DIMM temperature with a first-order
// RC network: temperature relaxes toward ambient plus the product of
// dissipated power and thermal resistance. Temperature matters twice
// in the UniServer stack — leakage power rises exponentially with die
// temperature (power package) and DRAM retention halves roughly every
// 10°C (dram package) — so the operating conditions the paper's EOP
// must adapt to ("variations of environmental conditions") are a
// first-class simulated quantity.
package thermal

import (
	"math"
	"time"
)

// Node is one first-order thermal node.
type Node struct {
	// Name identifies the node (e.g. "cpu", "dimm0").
	Name string
	// AmbientC is the environment temperature the node relaxes toward.
	AmbientC float64
	// ResistanceCPerW converts dissipated watts into steady-state
	// degrees above ambient.
	ResistanceCPerW float64
	// TimeConstant is the RC time constant of the node.
	TimeConstant time.Duration
	// TempC is the current temperature.
	TempC float64

	// alpha is Step's relaxation factor 1-exp(-dt/τ) for the (dt, τ)
	// pair in alphaDt and alphaTau. A zero alphaDt matches no step:
	// Step returns before using alpha for dt <= 0.
	alphaDt, alphaTau time.Duration
	alpha             float64
}

// SteadyStateC returns the temperature the node converges to while
// dissipating the given power.
func (n *Node) SteadyStateC(powerW float64) float64 {
	return n.AmbientC + powerW*n.ResistanceCPerW
}

// Step advances the node by dt while dissipating powerW, using the
// exact exponential solution of the first-order ODE (stable for any
// step size).
func (n *Node) Step(powerW float64, dt time.Duration) float64 {
	if dt <= 0 {
		return n.TempC
	}
	target := n.SteadyStateC(powerW)
	if dt != n.alphaDt || n.TimeConstant != n.alphaTau {
		n.alphaDt, n.alphaTau = dt, n.TimeConstant
		n.alpha = 1 - math.Exp(-float64(dt)/float64(n.TimeConstant))
	}
	n.TempC += (target - n.TempC) * n.alpha
	return n.TempC
}

// CPUNode returns a node shaped like a micro-server SoC: ~0.8 °C/W
// with a ~20 s time constant in an air-conditioned room.
func CPUNode(ambientC float64) *Node {
	n := new(Node)
	n.SettleCPU(ambientC)
	return n
}

// DIMMNode returns a node shaped like a DDR3 DIMM: slower and cooler
// than the SoC (~1.5 °C/W, ~90 s).
func DIMMNode(ambientC float64) *Node {
	n := new(Node)
	n.SettleDIMM(ambientC)
	return n
}

// SettleCPU overwrites n in place with CPUNode(ambientC), Step's
// relaxation memo cleared: a reused node's re-seat, allocation-free.
func (n *Node) SettleCPU(ambientC float64) {
	*n = Node{Name: "cpu", AmbientC: ambientC, ResistanceCPerW: 0.8, TimeConstant: 20 * time.Second, TempC: ambientC}
}

// SettleDIMM overwrites n in place with DIMMNode(ambientC), Step's
// relaxation memo cleared.
func (n *Node) SettleDIMM(ambientC float64) {
	*n = Node{Name: "dimm", AmbientC: ambientC, ResistanceCPerW: 1.5, TimeConstant: 90 * time.Second, TempC: ambientC}
}

// Trip is a thermal protection threshold.
type Trip struct {
	// WarnC raises a telemetry event; TripC forces a fallback to
	// nominal (thermal excursions shrink voltage margins).
	WarnC, TripC float64
}

// DefaultTrip returns server-class thresholds.
func DefaultTrip() Trip { return Trip{WarnC: 85, TripC: 95} }

// Check classifies a temperature against the trip thresholds:
// 0 = normal, 1 = warning, 2 = trip.
func (t Trip) Check(tempC float64) int {
	switch {
	case tempC >= t.TripC:
		return 2
	case tempC >= t.WarnC:
		return 1
	default:
		return 0
	}
}
