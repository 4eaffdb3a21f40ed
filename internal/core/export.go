package core

import (
	"fmt"

	"uniserver/internal/openstack"
	"uniserver/internal/predictor"
)

// PredictedFailProb returns the node's per-window crash probability at
// its current operating point for a mid-droop workload, as the trained
// Predictor sees it. This is the reliability input the cloud layer
// consumes, both at node export and on every fleet epoch, so scheduling
// decisions track the node's live health rather than a stale snapshot.
func (e *Ecosystem) PredictedFailProb() (float64, error) {
	if e.advisor == nil {
		return 0, ErrNotCharacterized
	}
	point, nominal := e.Hypervisor.Point(), e.Machine.Spec.Nominal.VoltageMV
	if m := &e.failProb; m.set && m.point == point.VoltageMV && m.nominal == nominal {
		return m.p, nil
	}
	f := predictor.Features{
		UndervoltPct:   -point.VoltageOffsetPct(nominal),
		DroopIntensity: 0.5,
		TempC:          55,
	}
	failProb := e.Model.Predict(f)
	// The logistic model saturates near 0 at safe points; floor at a
	// tiny hardware-lottery baseline so scheduling still discriminates.
	if failProb < 1e-4 {
		failProb = 1e-4
	}
	e.failProb = failMemo{point: point.VoltageMV, nominal: nominal, p: failProb, set: true}
	return failProb, nil
}

// failMemo holds PredictedFailProb's answer for the last (point
// voltage, nominal voltage) pair it priced: the answer's only other
// input is the model, and the model changes only where the memo is
// cleared — PreDeployment's Fit and RestoreInto. The point moves only
// on mode changes, fallbacks and the ECC loop, so most windows reuse
// it.
type failMemo struct {
	point, nominal int
	p              float64
	set            bool
}

// Node exports the characterized ecosystem as a schedulable cloud
// node: its failure probability comes from the trained Predictor at
// the node's current operating point, and its power envelope from the
// CPU power model — so the OpenStack layer's reliability metric is
// grounded in the same models that drive the node-level decisions.
func (e *Ecosystem) Node(name string, memBytes uint64) (*openstack.Node, error) {
	failProb, err := e.PredictedFailProb()
	if err != nil {
		return nil, fmt.Errorf("core: exporting node %q: %w", name, err)
	}
	point := e.Hypervisor.Point()

	n := openstack.NewNode(name, e.Hypervisor.AvailableCores(), memBytes, failProb)
	n.Mode = e.mode
	n.IdlePowerW = e.power.TotalW(point, 0.05, 45)
	n.BusyPowerW = e.power.TotalW(point, 0.9, 65)
	if n.BusyPowerW <= n.IdlePowerW {
		return nil, fmt.Errorf("core: degenerate power envelope for %q", name)
	}
	// The mode's risk premium is already baked into failProb via the
	// operating point; disable the abstract multiplier.
	n.EOPRiskFactor = 1
	return n, nil
}
