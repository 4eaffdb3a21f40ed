// Package power implements the analytical power and energy models the
// UniServer stack uses to price operating points: CMOS dynamic and
// leakage power for the CPU domain, DRAM refresh power, and the
// edge-versus-cloud voltage/frequency scaling arithmetic of Section
// 6.D of the paper ("operating at 50% of the peak frequency with 30%
// less voltage translates to running with 50% less energy and 75% less
// power").
package power

import (
	"fmt"
	"math"
	"time"

	"uniserver/internal/vfr"
)

// CPUModel prices a CPU domain at arbitrary operating points using the
// classic decomposition P = alpha·C·V²·f + V·Ileak(V, T).
type CPUModel struct {
	// SwitchedCapNF is the effective switched capacitance alpha·C in
	// nanofarads, aggregated over the modeled cores.
	SwitchedCapNF float64
	// LeakRefMA is the leakage current in milliamperes at the
	// reference voltage and temperature.
	LeakRefMA float64
	// RefVoltageMV and RefTempC anchor the leakage model.
	RefVoltageMV int
	RefTempC     float64
	// VoltExp models the super-linear dependence of leakage on supply
	// voltage (DIBL); a typical value is 2-3.
	VoltExp float64
	// TempCoeffPerC models the exponential dependence of leakage on
	// temperature; a typical value is ~0.02/°C (doubling every ~35°C).
	TempCoeffPerC float64
}

// DefaultCPUModel returns a model calibrated so that a 4-core mobile
// part at 0.844 V / 2.6 GHz dissipates on the order of 15 W, with
// leakage contributing roughly a quarter at reference conditions —
// representative of the low-end i5-4200U class used in the paper.
func DefaultCPUModel() CPUModel {
	return CPUModel{
		SwitchedCapNF: 6.2,
		LeakRefMA:     4400,
		RefVoltageMV:  844,
		RefTempC:      55,
		VoltExp:       2.4,
		TempCoeffPerC: 0.018,
	}
}

// DynamicW returns the dynamic power in watts at the given point,
// scaled by the activity factor (0..1, where 1 is a power virus).
func (m CPUModel) DynamicW(p vfr.Point, activity float64) float64 {
	v := float64(p.VoltageMV) / 1000
	f := float64(p.FreqMHz) * 1e6
	return activity * m.SwitchedCapNF * 1e-9 * v * v * f
}

// LeakageW returns the static power in watts at the given voltage and
// temperature.
func (m CPUModel) LeakageW(p vfr.Point, tempC float64) float64 {
	return m.leakageWAt(p, m.VoltageFactor(p.VoltageMV), tempC)
}

// VoltageFactor returns the leakage model's supply-voltage term
// (V/Vref)^VoltExp: the part of LeakageW that depends on the voltage
// alone, so a caller pricing one point at many temperatures can
// compute it once.
func (m CPUModel) VoltageFactor(voltageMV int) float64 {
	v := float64(voltageMV) / 1000
	vref := float64(m.RefVoltageMV) / 1000
	return math.Pow(v/vref, m.VoltExp)
}

// leakageWAt is LeakageW given the point's VoltageFactor, bit for bit.
func (m CPUModel) leakageWAt(p vfr.Point, voltFactor, tempC float64) float64 {
	v := float64(p.VoltageMV) / 1000
	scale := voltFactor * math.Exp(m.TempCoeffPerC*(tempC-m.RefTempC))
	return v * m.LeakRefMA * 1e-3 * scale
}

// TotalW returns dynamic plus leakage power in watts.
func (m CPUModel) TotalW(p vfr.Point, activity, tempC float64) float64 {
	return m.TotalWAt(p, activity, m.VoltageFactor(p.VoltageMV), tempC)
}

// TotalWAt is TotalW given the point's VoltageFactor, bit for bit.
func (m CPUModel) TotalWAt(p vfr.Point, activity, voltFactor, tempC float64) float64 {
	return m.DynamicW(p, activity) + m.leakageWAt(p, voltFactor, tempC)
}

// EnergyJ returns the energy in joules to run for the given duration
// at constant activity and temperature.
func (m CPUModel) EnergyJ(p vfr.Point, activity, tempC float64, d time.Duration) float64 {
	return m.TotalW(p, activity, tempC) * d.Seconds()
}

// EnergyPerWorkJ returns the energy to complete a fixed amount of work
// (cycles) at the given point: work that takes baselineSeconds at
// baselineFreqMHz stretches inversely with frequency.
func (m CPUModel) EnergyPerWorkJ(p vfr.Point, activity, tempC float64, baselineSeconds float64, baselineFreqMHz int) float64 {
	if p.FreqMHz <= 0 {
		return math.Inf(1)
	}
	runtime := baselineSeconds * float64(baselineFreqMHz) / float64(p.FreqMHz)
	return m.TotalW(p, activity, tempC) * runtime
}

// DynamicScalingFactor returns the ratio of dynamic power at
// (voltageScale, freqScale) relative to nominal: voltageScale²·freqScale.
// This is the pure-CMOS arithmetic behind the paper's Section 6.D
// numbers: voltageScale=0.7, freqScale=0.5 gives 0.245 (≈75% less
// power), and with runtime doubled, energy scale 0.49 (≈50% less
// energy).
func DynamicScalingFactor(voltageScale, freqScale float64) float64 {
	return voltageScale * voltageScale * freqScale
}

// EnergyScalingFactor returns the ratio of energy-to-completion for a
// fixed amount of work at the scaled point relative to nominal,
// assuming runtime scales as 1/freqScale.
func EnergyScalingFactor(voltageScale, freqScale float64) float64 {
	if freqScale <= 0 {
		return math.Inf(1)
	}
	return DynamicScalingFactor(voltageScale, freqScale) / freqScale
}

// DRAMRefreshModel prices DRAM refresh power as a share of total
// memory power. The paper (citing RAIDR, ISCA 2013) notes refresh is
// ~9% of memory power for 2 Gb DIMMs and is projected to exceed 34%
// for 32 Gb DIMMs; refresh energy scales inversely with the refresh
// interval.
type DRAMRefreshModel struct {
	// DeviceGb is the per-device density in gigabits.
	DeviceGb int
	// TotalMemW is the total memory-subsystem power at the nominal
	// 64 ms refresh interval, in watts.
	TotalMemW float64
}

// refreshShareByDensity interpolates the refresh share of total memory
// power as a function of device density, anchored at the two published
// points (2 Gb → 9%, 32 Gb → 34%) with log2 interpolation between and
// beyond (clamped to [0.02, 0.60]).
func refreshShareByDensity(deviceGb int) float64 {
	if deviceGb <= 0 {
		return 0
	}
	// Anchors: log2(2)=1 → 0.09, log2(32)=5 → 0.34.
	l := math.Log2(float64(deviceGb))
	share := 0.09 + (0.34-0.09)*(l-1)/4
	if share < 0.02 {
		share = 0.02
	}
	if share > 0.60 {
		share = 0.60
	}
	return share
}

// NominalRefreshShare returns the fraction of total memory power spent
// on refresh at the nominal 64 ms interval for this device density.
func (m DRAMRefreshModel) NominalRefreshShare() float64 {
	return refreshShareByDensity(m.DeviceGb)
}

// RefreshW returns the refresh power in watts at the given refresh
// interval: refresh operations per second scale as 64ms/interval.
func (m DRAMRefreshModel) RefreshW(interval time.Duration) float64 {
	if interval <= 0 {
		return math.Inf(1)
	}
	nominal := m.TotalMemW * m.NominalRefreshShare()
	return nominal * float64(vfr.NominalRefresh) / float64(interval)
}

// TotalW returns the total memory power at the given refresh interval,
// holding the non-refresh component constant.
func (m DRAMRefreshModel) TotalW(interval time.Duration) float64 {
	base := m.TotalMemW * (1 - m.NominalRefreshShare())
	return base + m.RefreshW(interval)
}

// SavingsPct returns the percentage of total memory power saved by
// relaxing refresh from nominal (64 ms) to the given interval.
func (m DRAMRefreshModel) SavingsPct(interval time.Duration) float64 {
	return 100 * (m.TotalW(vfr.NominalRefresh) - m.TotalW(interval)) / m.TotalW(vfr.NominalRefresh)
}

// Budget tracks a node power budget and utilization against it.
type Budget struct {
	CapW float64
}

// Headroom returns how many watts remain under the cap for the given
// draw; negative means the cap is exceeded.
func (b Budget) Headroom(drawW float64) float64 { return b.CapW - drawW }

// Validate returns an error when the budget is non-positive.
func (b Budget) Validate() error {
	if b.CapW <= 0 {
		return fmt.Errorf("power: non-positive budget cap %v", b.CapW)
	}
	return nil
}
