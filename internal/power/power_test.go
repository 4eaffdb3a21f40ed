package power

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"uniserver/internal/vfr"
)

var nominal = vfr.Point{VoltageMV: 844, FreqMHz: 2600}

func TestDynamicScalesQuadraticallyWithVoltage(t *testing.T) {
	m := DefaultCPUModel()
	p1 := m.DynamicW(nominal, 1)
	p2 := m.DynamicW(nominal.WithVoltage(422), 1) // half voltage
	ratio := p1 / p2
	if math.Abs(ratio-4) > 1e-9 {
		t.Fatalf("dynamic power ratio at half voltage = %v, want 4", ratio)
	}
}

func TestDynamicScalesLinearlyWithFrequency(t *testing.T) {
	m := DefaultCPUModel()
	half := nominal
	half.FreqMHz = nominal.FreqMHz / 2
	ratio := m.DynamicW(nominal, 1) / m.DynamicW(half, 1)
	if math.Abs(ratio-2) > 1e-9 {
		t.Fatalf("dynamic power ratio at half frequency = %v, want 2", ratio)
	}
}

func TestDynamicScalesWithActivity(t *testing.T) {
	m := DefaultCPUModel()
	if m.DynamicW(nominal, 0) != 0 {
		t.Fatal("zero activity should dissipate zero dynamic power")
	}
	if m.DynamicW(nominal, 0.5) >= m.DynamicW(nominal, 1.0) {
		t.Fatal("dynamic power should increase with activity")
	}
}

func TestLeakageIncreasesWithTemperatureAndVoltage(t *testing.T) {
	m := DefaultCPUModel()
	cold := m.LeakageW(nominal, 40)
	hot := m.LeakageW(nominal, 90)
	if hot <= cold {
		t.Fatalf("leakage at 90C (%v) should exceed 40C (%v)", hot, cold)
	}
	low := m.LeakageW(nominal.WithVoltage(700), 55)
	high := m.LeakageW(nominal, 55)
	if high <= low {
		t.Fatalf("leakage at 844mV (%v) should exceed 700mV (%v)", high, low)
	}
}

func TestDefaultModelMagnitude(t *testing.T) {
	m := DefaultCPUModel()
	w := m.TotalW(nominal, 0.7, 55)
	if w < 5 || w > 40 {
		t.Fatalf("total power at nominal = %vW, want a plausible 5-40W", w)
	}
}

func TestEnergyIntegration(t *testing.T) {
	m := DefaultCPUModel()
	w := m.TotalW(nominal, 0.5, 55)
	e := m.EnergyJ(nominal, 0.5, 55, 2*time.Second)
	if math.Abs(e-2*w) > 1e-9 {
		t.Fatalf("EnergyJ = %v, want %v", e, 2*w)
	}
}

func TestEnergyPerWorkRuntimeStretch(t *testing.T) {
	m := DefaultCPUModel()
	// Same work at half frequency takes 2x the time.
	half := nominal
	half.FreqMHz = nominal.FreqMHz / 2
	eNom := m.EnergyPerWorkJ(nominal, 1, 55, 10, nominal.FreqMHz)
	eHalf := m.EnergyPerWorkJ(half, 1, 55, 10, nominal.FreqMHz)
	// At equal voltage, halving f halves dynamic power but doubles
	// runtime: dynamic energy unchanged, leakage energy doubled, so
	// total energy must rise.
	if eHalf <= eNom {
		t.Fatalf("half-frequency same-voltage energy (%v) should exceed nominal (%v)", eHalf, eNom)
	}
	if got := m.EnergyPerWorkJ(nominal.WithVoltage(844), 1, 55, 10, 0); !math.IsInf(m.EnergyPerWorkJ(vfr.Point{VoltageMV: 844}, 1, 55, 10, 2600), 1) {
		_ = got
		t.Fatal("zero frequency should yield infinite energy")
	}
}

func TestSection6DScalingNumbers(t *testing.T) {
	// Paper: 50% frequency with 30% less voltage -> 75% less power,
	// 50% less energy.
	power := DynamicScalingFactor(0.7, 0.5)
	if math.Abs(power-0.245) > 1e-12 {
		t.Fatalf("power scale = %v, want 0.245 (75.5%% reduction)", power)
	}
	energy := EnergyScalingFactor(0.7, 0.5)
	if math.Abs(energy-0.49) > 1e-12 {
		t.Fatalf("energy scale = %v, want 0.49 (51%% reduction)", energy)
	}
	if !math.IsInf(EnergyScalingFactor(0.7, 0), 1) {
		t.Fatal("zero frequency scale should be infinite energy")
	}
}

func TestRefreshShareAnchors(t *testing.T) {
	m2 := DRAMRefreshModel{DeviceGb: 2, TotalMemW: 10}
	if got := m2.NominalRefreshShare(); math.Abs(got-0.09) > 1e-12 {
		t.Fatalf("2Gb refresh share = %v, want 0.09", got)
	}
	m32 := DRAMRefreshModel{DeviceGb: 32, TotalMemW: 10}
	if got := m32.NominalRefreshShare(); math.Abs(got-0.34) > 1e-12 {
		t.Fatalf("32Gb refresh share = %v, want 0.34", got)
	}
	if refreshShareByDensity(0) != 0 {
		t.Fatal("zero density should have zero share")
	}
	if s := refreshShareByDensity(1 << 10); s > 0.60 {
		t.Fatalf("share should clamp at 0.60, got %v", s)
	}
}

func TestRefreshPowerScalesInversely(t *testing.T) {
	m := DRAMRefreshModel{DeviceGb: 2, TotalMemW: 10}
	at64 := m.RefreshW(vfr.NominalRefresh)
	at128 := m.RefreshW(128 * time.Millisecond)
	if math.Abs(at64/at128-2) > 1e-9 {
		t.Fatalf("refresh power ratio 64ms/128ms = %v, want 2", at64/at128)
	}
	if !math.IsInf(m.RefreshW(0), 1) {
		t.Fatal("zero interval should be infinite power")
	}
}

func TestRefreshSavings(t *testing.T) {
	m := DRAMRefreshModel{DeviceGb: 2, TotalMemW: 10}
	// Relaxing 64ms -> 1.5s should recover nearly the whole 9% share.
	s := m.SavingsPct(1500 * time.Millisecond)
	if s < 8.5 || s > 9 {
		t.Fatalf("savings at 1.5s = %v%%, want ~8.6-9%%", s)
	}
	if m.SavingsPct(vfr.NominalRefresh) != 0 {
		t.Fatal("no savings at nominal refresh")
	}
	m32 := DRAMRefreshModel{DeviceGb: 32, TotalMemW: 10}
	if s32 := m32.SavingsPct(5 * time.Second); s32 < 33 {
		t.Fatalf("32Gb savings at 5s = %v%%, want >33%%", s32)
	}
}

func TestBudget(t *testing.T) {
	b := Budget{CapW: 100}
	if b.Headroom(70) != 30 {
		t.Fatal("headroom arithmetic wrong")
	}
	if b.Headroom(130) != -30 {
		t.Fatal("negative headroom arithmetic wrong")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Budget{}).Validate(); err == nil {
		t.Fatal("zero budget should be invalid")
	}
}

func TestPowerMonotonicInVoltageProperty(t *testing.T) {
	m := DefaultCPUModel()
	err := quick.Check(func(raw uint16, delta uint8) bool {
		v := 500 + int(raw)%800  // 500..1299 mV
		dv := 1 + int(delta)%200 // 1..200 mV
		p1 := vfr.Point{VoltageMV: v, FreqMHz: 2000}
		p2 := vfr.Point{VoltageMV: v + dv, FreqMHz: 2000}
		return m.TotalW(p2, 0.8, 55) > m.TotalW(p1, 0.8, 55)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnergyScalingConsistencyProperty(t *testing.T) {
	err := quick.Check(func(rv, rf uint8) bool {
		vs := 0.5 + float64(rv%50)/100 // 0.5..0.99
		fs := 0.3 + float64(rf%70)/100 // 0.3..0.99
		// Energy scale = power scale / freq scale, always.
		return math.Abs(EnergyScalingFactor(vs, fs)-DynamicScalingFactor(vs, fs)/fs) < 1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestVoltageFactorSplitBitIdentical pins the split leakage path to the
// single formula LeakageW had before it was split, bit for bit, over a
// grid of points and temperatures: a caller that memoizes
// VoltageFactor and prices through leakageWAt/TotalWAt must see
// exactly the bits the formula gives.
func TestVoltageFactorSplitBitIdentical(t *testing.T) {
	m := DefaultCPUModel()
	formula := func(p vfr.Point, tempC float64) float64 {
		v := float64(p.VoltageMV) / 1000
		vref := float64(m.RefVoltageMV) / 1000
		scale := math.Pow(v/vref, m.VoltExp) * math.Exp(m.TempCoeffPerC*(tempC-m.RefTempC))
		return v * m.LeakRefMA * 1e-3 * scale
	}
	for mv := 500; mv <= 1300; mv += 7 {
		for _, mhz := range []int{800, 1300, 2600, 3500} {
			p := vfr.Point{VoltageMV: mv, FreqMHz: mhz}
			vf := m.VoltageFactor(mv)
			for tempC := -20.0; tempC <= 125; tempC += 3.7 {
				want := formula(p, tempC)
				for name, got := range map[string]float64{
					"LeakageW":   m.LeakageW(p, tempC),
					"leakageWAt": m.leakageWAt(p, vf, tempC),
				} {
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s(%v, %v) = %v, formula gives %v", name, p, tempC, got, want)
					}
				}
				for _, act := range []float64{0, 0.05, 0.55, 1} {
					want := m.DynamicW(p, act) + formula(p, tempC)
					if got := m.TotalWAt(p, act, vf, tempC); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("TotalWAt(%v, %v, %v) = %v, formula gives %v", p, act, tempC, got, want)
					}
					if got := m.TotalW(p, act, tempC); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("TotalW(%v, %v, %v) = %v, formula gives %v", p, act, tempC, got, want)
					}
				}
			}
		}
	}
}
