// Package predictor implements the machine-learning Predictor of
// Section 3.E: a failure-probability model trained on the vectors the
// HealthLog and StressLog produce, used to advise the Hypervisor on
// the best V-F-R mode (high-performance or low-power) for the current
// workload and runtime conditions.
//
// The model is an online logistic regression over operating-point and
// workload features. Logistic regression is a deliberate choice: the
// daemon must retrain in the field on a micro-server, its decisions
// must be explainable (the hypervisor logs why a point was rejected),
// and the failure boundary in (voltage-margin, stress) space is
// monotone — all properties the paper's "probability failure models"
// need.
package predictor

import (
	"errors"
	"fmt"
	"math"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
)

// FeatureCount is the dimensionality of the feature vector.
const FeatureCount = 4

// Features encodes one observation window for the model.
type Features struct {
	// UndervoltPct is how far below nominal the supply sits, in
	// percent (positive = undervolted).
	UndervoltPct float64
	// DroopIntensity in [0,1] characterizes the workload's di/dt
	// behaviour (estimated from performance counters at runtime).
	DroopIntensity float64
	// TempC is the die temperature.
	TempC float64
	// RefreshLogRatio is log2(refresh / 64 ms) for the DRAM domain the
	// workload's memory lives on (0 at nominal refresh).
	RefreshLogRatio float64
}

// vector returns the normalized feature vector.
func (f Features) vector() [FeatureCount]float64 {
	return [FeatureCount]float64{
		f.UndervoltPct / 10,   // ~1 at a 10% undervolt
		f.DroopIntensity,      // already [0,1]
		(f.TempC - 55) / 30,   // ~0 at 55°C, ±1 over ±30°C
		f.RefreshLogRatio / 6, // ~1 at 64x nominal refresh
	}
}

// Sample is one labeled training observation.
type Sample struct {
	F       Features
	Crashed bool
}

// Model is a logistic-regression failure-probability model. The zero
// value is untrained; use NewModel.
type Model struct {
	W       [FeatureCount]float64
	B       float64
	LR      float64 // SGD learning rate
	L2      float64 // ridge penalty
	Trained int     // samples consumed
}

// NewModel returns a model with standard hyperparameters.
func NewModel() *Model {
	return &Model{LR: 0.15, L2: 1e-4}
}

// Predict returns the model's crash probability for the features.
func (m *Model) Predict(f Features) float64 {
	x := f.vector()
	z := m.B
	for i, w := range m.W {
		z += w * x[i]
	}
	return 1 / (1 + math.Exp(-z))
}

// Update performs one SGD step on a single sample.
func (m *Model) Update(s Sample) {
	x := s.F.vector()
	y := 0.0
	if s.Crashed {
		y = 1
	}
	p := m.Predict(s.F)
	g := p - y
	for i := range m.W {
		m.W[i] -= m.LR * (g*x[i] + m.L2*m.W[i])
	}
	m.B -= m.LR * g
	m.Trained++
}

// Fit trains for the given number of epochs over the samples, shuffled
// each epoch with src.
func (m *Model) Fit(samples []Sample, epochs int, src *rng.Source) error {
	if len(samples) == 0 {
		return errors.New("predictor: no training samples")
	}
	if epochs <= 0 {
		return errors.New("predictor: epochs must be positive")
	}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < epochs; e++ {
		src.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			m.Update(samples[i])
		}
	}
	return nil
}

// Accuracy returns the fraction of samples classified correctly at the
// 0.5 threshold. An empty sample set has no defined accuracy and
// returns NaN — consistent with Fit, which refuses to train on empty
// input, and distinguishable from a model that is genuinely 0%
// accurate.
func (m *Model) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	correct := 0
	for _, s := range samples {
		if (m.Predict(s.F) >= 0.5) == s.Crashed {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// Advice is the Predictor's recommendation to the Hypervisor.
type Advice struct {
	Component string
	Mode      vfr.Mode
	Point     vfr.Point
	// PredictedFailProb is the model's crash probability at the
	// recommended point.
	PredictedFailProb float64
	// BackoffMV is how many millivolts of extra cushion the advisor
	// added beyond the published margin to meet the risk target.
	BackoffMV int
}

// Advisor combines the trained model with the StressLog's margin table
// to answer "which point should this component run at, in this mode,
// under this workload, at this risk budget".
type Advisor struct {
	Model *Model
	Table *vfr.EOPTable
	// MaxBackoffMV bounds how far the advisor will retreat from the
	// published margin before giving up and recommending nominal.
	MaxBackoffMV int
}

// NewAdvisor returns an advisor over the model and margin table.
func NewAdvisor(model *Model, table *vfr.EOPTable) *Advisor {
	return &Advisor{Model: model, Table: table, MaxBackoffMV: 80}
}

// Advise recommends an operating point for the component in the given
// mode such that the predicted failure probability stays at or below
// target. Low-power mode scales frequency to 50% and voltage toward
// the margin; high-performance mode holds nominal frequency and shaves
// voltage. Nominal mode always returns the manufacturer point.
func (a *Advisor) Advise(component string, mode vfr.Mode, workload Features, target float64) (Advice, error) {
	margin, err := a.Table.Lookup(component)
	if err != nil {
		return Advice{}, err
	}
	if target <= 0 || target >= 1 {
		return Advice{}, fmt.Errorf("predictor: target failure probability %v outside (0,1)", target)
	}

	nominal := margin.Nominal
	if mode == vfr.ModeNominal {
		return Advice{Component: component, Mode: mode, Point: nominal,
			PredictedFailProb: a.predictAt(nominal, nominal, workload)}, nil
	}

	candidate := margin.Safe
	if mode == vfr.ModeLowPower {
		// Half frequency needs less voltage: move the candidate down
		// by the critical-voltage slope implied by the margin table
		// being calibrated at nominal frequency. We conservatively
		// keep the characterized safe voltage and only halve
		// frequency, which strictly increases timing slack.
		candidate.FreqMHz = nominal.FreqMHz / 2
	}

	for backoff := 0; backoff <= a.MaxBackoffMV; backoff += 5 {
		p := candidate.WithVoltage(candidate.VoltageMV + backoff)
		if p.VoltageMV >= nominal.VoltageMV {
			break
		}
		prob := a.predictAt(p, nominal, workload)
		if prob <= target {
			return Advice{
				Component:         component,
				Mode:              mode,
				Point:             p,
				PredictedFailProb: prob,
				BackoffMV:         backoff,
			}, nil
		}
	}
	// Risk target unreachable below nominal: fall back to nominal.
	return Advice{
		Component:         component,
		Mode:              vfr.ModeNominal,
		Point:             nominal,
		PredictedFailProb: a.predictAt(nominal, nominal, workload),
		BackoffMV:         a.MaxBackoffMV,
	}, nil
}

// predictAt evaluates the model at an operating point, deriving the
// undervolt feature from the point and carrying the workload features
// through.
func (a *Advisor) predictAt(p, nominal vfr.Point, workload Features) float64 {
	f := workload
	f.UndervoltPct = -p.VoltageOffsetPct(nominal.VoltageMV)
	if p.Refresh > 0 {
		f.RefreshLogRatio = math.Log2(float64(p.Refresh) / float64(vfr.NominalRefresh))
	}
	return a.Model.Predict(f)
}
