package predictor

import (
	"math"
	"testing"

	"uniserver/internal/cpu"
	"uniserver/internal/rng"
	"uniserver/internal/vfr"
)

// syntheticDataset builds a labeled dataset from the CPU simulator:
// runs at varying undervolt depths with crash labels, exactly what the
// StressLog campaigns feed the Predictor.
func syntheticDataset(seed uint64, n int) []Sample {
	m := cpu.NewMachine(cpu.PartI5_4200U(), seed)
	suite := cpu.SPECSuite()
	src := rng.New(seed)
	samples := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		b := suite[src.Intn(len(suite))]
		undervolt := src.Range(0, 16) // percent
		v := int(float64(m.Spec.Nominal.VoltageMV) * (1 - undervolt/100))
		out := m.RunAt(src.Intn(m.Spec.Cores), b, v)
		samples = append(samples, Sample{
			F: Features{
				UndervoltPct:   undervolt,
				DroopIntensity: b.DroopIntensity,
				TempC:          src.Range(45, 70),
			},
			Crashed: out.Crashed,
		})
	}
	return samples
}

func trainedModel(t *testing.T) (*Model, []Sample) {
	t.Helper()
	train := syntheticDataset(1, 3000)
	m := NewModel()
	if err := m.Fit(train, 8, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	return m, train
}

func TestFitValidation(t *testing.T) {
	m := NewModel()
	if err := m.Fit(nil, 1, rng.New(1)); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if err := m.Fit([]Sample{{}}, 0, rng.New(1)); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

func TestModelLearnsCrashBoundary(t *testing.T) {
	m, train := trainedModel(t)
	test := syntheticDataset(99, 1000)
	acc := m.Accuracy(test)
	if acc < 0.90 {
		t.Fatalf("held-out accuracy = %.3f, want >= 0.90", acc)
	}
	if m.Trained != 3000*8 {
		t.Fatalf("Trained = %d", m.Trained)
	}
	if acc := m.Accuracy(train); acc < 0.90 {
		t.Fatalf("training accuracy = %.3f, want >= 0.90", acc)
	}
}

func TestPredictionMonotoneInUndervolt(t *testing.T) {
	m, _ := trainedModel(t)
	f := Features{DroopIntensity: 0.5, TempC: 55}
	prev := -1.0
	for uv := 0.0; uv <= 16; uv += 1 {
		f.UndervoltPct = uv
		p := m.Predict(f)
		if p < prev {
			t.Fatalf("crash probability decreased at undervolt %v%%", uv)
		}
		prev = p
	}
	// Shallow undervolt must be safe, deep must be risky.
	f.UndervoltPct = 2
	if p := m.Predict(f); p > 0.2 {
		t.Errorf("P(crash | 2%% undervolt) = %.3f, want small", p)
	}
	f.UndervoltPct = 15
	if p := m.Predict(f); p < 0.8 {
		t.Errorf("P(crash | 15%% undervolt) = %.3f, want large", p)
	}
}

func TestDroopierWorkloadIsRiskier(t *testing.T) {
	m, _ := trainedModel(t)
	calm := Features{UndervoltPct: 10.5, DroopIntensity: 0.05, TempC: 55}
	angry := Features{UndervoltPct: 10.5, DroopIntensity: 0.95, TempC: 55}
	if m.Predict(angry) <= m.Predict(calm) {
		t.Fatal("high-droop workload should be riskier at equal undervolt")
	}
}

// TestMetricsEmptyInput pins the empty-sample-set contract: Fit
// refuses to train on an empty set, so the evaluation metrics treat it
// the same way — undefined, reported as NaN rather than a fake perfect
// (or perfectly bad) score a dashboard could mistake for a real one.
func TestMetricsEmptyInput(t *testing.T) {
	m := NewModel()
	cases := []struct {
		name    string
		samples []Sample
		metric  func([]Sample) float64
	}{
		{"accuracy nil", nil, m.Accuracy},
		{"accuracy empty", []Sample{}, m.Accuracy},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.metric(c.samples); !math.IsNaN(got) {
				t.Fatalf("empty sample set scored %v, want NaN", got)
			}
		})
	}
	// One sample is a defined input: the metrics must return real
	// numbers again.
	one := []Sample{{F: Features{UndervoltPct: 2, TempC: 55}}}
	if got := m.Accuracy(one); math.IsNaN(got) {
		t.Fatal("single-sample accuracy is NaN")
	}
}

func marginTable() *vfr.EOPTable {
	tab := vfr.NewEOPTable()
	tab.Set(vfr.Margin{
		Component:  "i5-4200U/core0",
		Nominal:    vfr.Point{VoltageMV: 844, FreqMHz: 2600},
		CrashPoint: vfr.Point{VoltageMV: 756, FreqMHz: 2600},
		Safe:       vfr.Point{VoltageMV: 781, FreqMHz: 2600},
		CushionMV:  25,
	})
	return tab
}

func TestAdviseNominalMode(t *testing.T) {
	m, _ := trainedModel(t)
	a := NewAdvisor(m, marginTable())
	adv, err := a.Advise("i5-4200U/core0", vfr.ModeNominal, Features{DroopIntensity: 0.5, TempC: 55}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Point.VoltageMV != 844 || adv.Mode != vfr.ModeNominal {
		t.Fatalf("nominal advice = %+v", adv)
	}
}

func TestAdviseHighPerformanceShavesVoltage(t *testing.T) {
	m, _ := trainedModel(t)
	a := NewAdvisor(m, marginTable())
	adv, err := a.Advise("i5-4200U/core0", vfr.ModeHighPerformance,
		Features{DroopIntensity: 0.3, TempC: 55}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Point.FreqMHz != 2600 {
		t.Fatalf("high-performance mode changed frequency: %+v", adv)
	}
	if adv.Point.VoltageMV >= 844 {
		t.Fatalf("no voltage shaved: %+v", adv)
	}
	if adv.PredictedFailProb > 0.05 {
		t.Fatalf("advice violates risk target: %+v", adv)
	}
}

func TestAdviseLowPowerHalvesFrequency(t *testing.T) {
	m, _ := trainedModel(t)
	a := NewAdvisor(m, marginTable())
	adv, err := a.Advise("i5-4200U/core0", vfr.ModeLowPower,
		Features{DroopIntensity: 0.3, TempC: 55}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Point.FreqMHz != 1300 {
		t.Fatalf("low-power frequency = %d, want 1300", adv.Point.FreqMHz)
	}
	if adv.Point.VoltageMV >= 844 {
		t.Fatalf("low-power mode should undervolt: %+v", adv)
	}
}

func TestAdviseTighterTargetBacksOff(t *testing.T) {
	m, _ := trainedModel(t)
	a := NewAdvisor(m, marginTable())
	w := Features{DroopIntensity: 0.9, TempC: 65}
	loose, err := a.Advise("i5-4200U/core0", vfr.ModeHighPerformance, w, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := a.Advise("i5-4200U/core0", vfr.ModeHighPerformance, w, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Point.VoltageMV < loose.Point.VoltageMV {
		t.Fatalf("tighter target chose lower voltage: tight=%+v loose=%+v", tight, loose)
	}
	if tight.BackoffMV < loose.BackoffMV {
		t.Fatalf("tighter target backed off less: tight=%d loose=%d", tight.BackoffMV, loose.BackoffMV)
	}
}

func TestAdviseFallsBackToNominal(t *testing.T) {
	// An untrained-but-biased model that predicts certain doom
	// everywhere forces the nominal fallback.
	m := NewModel()
	m.B = 10 // sigmoid(10) ~ 1
	a := NewAdvisor(m, marginTable())
	adv, err := a.Advise("i5-4200U/core0", vfr.ModeHighPerformance, Features{}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Mode != vfr.ModeNominal || adv.Point.VoltageMV != 844 {
		t.Fatalf("doom model should force nominal: %+v", adv)
	}
}

func TestAdviseErrors(t *testing.T) {
	m, _ := trainedModel(t)
	a := NewAdvisor(m, marginTable())
	if _, err := a.Advise("ghost", vfr.ModeNominal, Features{}, 0.01); err == nil {
		t.Fatal("unknown component accepted")
	}
	if _, err := a.Advise("i5-4200U/core0", vfr.ModeNominal, Features{}, 0); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := a.Advise("i5-4200U/core0", vfr.ModeNominal, Features{}, 1); err == nil {
		t.Fatal("unit target accepted")
	}
}

func TestFitDeterministic(t *testing.T) {
	train := syntheticDataset(5, 500)
	m1, m2 := NewModel(), NewModel()
	if err := m1.Fit(train, 3, rng.New(7)); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(train, 3, rng.New(7)); err != nil {
		t.Fatal(err)
	}
	if m1.W != m2.W || m1.B != m2.B {
		t.Fatal("training not deterministic")
	}
}

func TestPredictProbabilityBounds(t *testing.T) {
	m, _ := trainedModel(t)
	for uv := -5.0; uv < 30; uv += 0.5 {
		p := m.Predict(Features{UndervoltPct: uv, DroopIntensity: 0.5, TempC: 55})
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability out of bounds: %v", p)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	m := NewModel()
	f := Features{UndervoltPct: 8, DroopIntensity: 0.5, TempC: 55}
	for i := 0; i < b.N; i++ {
		_ = m.Predict(f)
	}
}

func BenchmarkFit(b *testing.B) {
	train := syntheticDataset(1, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewModel()
		if err := m.Fit(train, 1, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
