package scenario

import (
	"fmt"
	"sort"

	"uniserver/internal/vfr"
)

// Baseline is the reference operating point every other scenario is
// compared against: a homogeneous fleet at the paper's
// high-performance EOP under a steady tenant stream.
func Baseline() Scenario {
	return Scenario{
		Name:        "baseline",
		Description: "homogeneous fleet, high-performance EOP, steady arrivals",
		Nodes:       8,
		Windows:     120,
		Mode:        vfr.ModeHighPerformance,
		RiskTarget:  0.01,
	}
}

// DiurnalBurst models bursty tenants: a deep diurnal arrival swing
// with an onboarding wave at the afternoon peak, against twice the
// baseline VM pressure.
func DiurnalBurst() Scenario {
	s := Baseline()
	s.Name = "diurnal-burst"
	s.Description = "bursty tenants: diurnal arrival swing plus a 4x onboarding wave"
	s.Windows = 180
	s.VMs = 6 * s.Nodes
	s.Arrival = ArrivalModel{
		DiurnalDepth:  0.8,
		PeriodWindows: 90,
		BurstStart:    110,
		BurstWindows:  20,
		BurstFactor:   4,
	}
	return s
}

// HeteroBins models heterogeneous silicon: the fleet alternates
// between the low-end mobile bin and the high-end desktop bin of
// Table 2, so per-node margins, ECC exposure and power all differ.
func HeteroBins() Scenario {
	s := Baseline()
	s.Name = "hetero-bins"
	s.Description = "heterogeneous silicon: i5-4200U and i7-3970X bins interleaved"
	s.Bins = []string{"i5-4200U", "i7-3970X"}
	return s
}

// ThermalSummer models a hot machine room: elevated seasonal
// ambients with a diurnal swing and a mid-run heatwave, squeezing
// DRAM retention and leakage power.
func ThermalSummer() Scenario {
	s := Baseline()
	s.Name = "thermal-summer"
	s.Description = "hot season: 38°C ambient, diurnal swing, +18°C heatwave mid-run"
	s.Ambient = AmbientModel{
		BaseCPUC:      38,
		BaseDIMMC:     44,
		SwingC:        8,
		PeriodWindows: 60,
		HeatStart:     60,
		HeatWindows:   24,
		HeatDeltaC:    18,
	}
	return s
}

// ModeChurn models an operator moving the fleet between regimes as
// demand shifts: everyone drops to low-power a third of the way in,
// then returns to high-performance for the final third.
func ModeChurn() Scenario {
	s := Baseline()
	s.Name = "mode-churn"
	s.Description = "mid-run regime shifts: fleet-wide low-power dip, then back to high-performance"
	s.ModeSwitches = []ModeSwitch{
		{Window: 40, Node: -1, Mode: vfr.ModeLowPower, RiskTarget: 0.02},
		{Window: 80, Node: -1, Mode: vfr.ModeHighPerformance, RiskTarget: 0.01},
	}
	return s
}

// DroopAttack models the security analysis' availability attack: two
// nodes host a droop-virus guest for a span of windows while the
// fleet runs at a deep (risk 0.02) operating point.
func DroopAttack() Scenario {
	s := Baseline()
	s.Name = "droop-attack"
	s.Description = "droop-virus guests on two nodes at a deep EOP (availability attack)"
	s.RiskTarget = 0.02
	s.Attacks = []Attack{
		{Node: 0, Window: 40, Windows: 30},
		{Node: 3, Window: 40, Windows: 30},
	}
	return s
}

// AgingYear models the paper's lifetime story end to end: four
// windowed epochs spanning the seasons of a year, separated by
// 91-day fast-forward gaps that age the silicon and churn the DRAM
// telegraph noise, with a 90-day re-characterization cadence — so
// every epoch opens with a scheduled StressLog campaign publishing
// the drifted margins (Section 3.D: "periodically over the machine's
// lifetime (e.g. every 2-3 months) to track aging").
func AgingYear() Scenario {
	s := Baseline()
	s.Name = "aging-year"
	s.Description = "a year of lifetime: 4 seasonal epochs, 91-day gaps, 90-day re-characterization cadence"
	s.Windows = 60
	s.Lifetime = LifetimeModel{
		Epochs:             4,
		GapDays:            91,
		GapDuty:            0.6,
		RecharactEveryDays: 90,
		// Winter deployment, then spring, a hot summer machine room,
		// and autumn.
		SeasonCPUC:  []float64{24, 29, 38, 30},
		SeasonDIMMC: []float64{30, 35, 44, 36},
	}
	return s
}

// Fleet100k is the population-scale preset the scale-out engine
// exists for: a hundred thousand nodes drawn from the two Table 2
// silicon bins under archetype-clone characterization — two
// characterization campaigns serve the whole population — with memory
// bounded by workers × ecosystem-size plus compact per-node state. The
// VM stream is explicitly small: the scheduler's placement scan is
// O(nodes) per VM, so at population scale VM count, not node count,
// is the cloud layer's cost driver. Scaled down by the smoke grid it
// doubles as the archetype determinism specimen.
func Fleet100k() Scenario {
	s := Baseline()
	s.Name = "fleet-100k"
	s.Description = "population scale: 100k nodes, 2 archetype bins, bounded memory"
	s.Nodes = 100_000
	s.Windows = 30
	s.VMs = 2000
	s.Bins = []string{"i5-4200U", "i7-3970X"}
	s.Archetypes = true
	return s
}

// recharactCadence builds one leg of the cadence-comparison family:
// identical seven-epoch lifetimes (30-day gaps, ~6 months of aging)
// that differ only in the scheduled re-characterization cadence, so a
// campaign over the three legs isolates the cadence's effect on
// margin staleness, crashes and offline time.
func recharactCadence(name string, days int, human string) Scenario {
	s := Baseline()
	s.Name = name
	s.Description = fmt.Sprintf("re-characterization cadence study: 7 epochs, 30-day gaps, campaigns every %s", human)
	s.Nodes = 6
	s.Windows = 40
	s.Lifetime = LifetimeModel{
		Epochs:             7,
		GapDays:            30,
		GapDuty:            0.7,
		RecharactEveryDays: days,
	}
	return s
}

// RecharactCadences returns the 1/3/6-month cadence-comparison legs;
// run them in one campaign grid to compare schedules.
func RecharactCadences() []Scenario {
	return []Scenario{
		recharactCadence("recharact-1mo", 30, "month"),
		recharactCadence("recharact-3mo", 90, "3 months"),
		recharactCadence("recharact-6mo", 180, "6 months"),
	}
}

// DriftCadence is the Predictor-in-the-loop leg of the cadence family:
// the same seven-epoch monthly-schedule lifetime as recharact-1mo, but
// every scheduled campaign first consults the Predictor and runs only
// when the critical-voltage drift accumulated since the last campaign
// exceeds a tenth of the advised headroom — margin-aware
// re-characterization instead of a blind clock. Weak-cell growth is
// armed so the DRAM population drifts over life too (AVATAR's
// non-static field population), giving the gate real drift to track.
// Compare its recharacterization count, energy and availability
// against the recharact-* legs.
func DriftCadence() Scenario {
	s := recharactCadence("drift-cadence", 30, "month")
	s.Name = "drift-cadence"
	s.Description = "drift-gated cadence: monthly schedule, campaigns only above 10% predicted margin drift"
	s.DriftMarginFrac = 0.1
	s.WeakCellsPerDay = 2
	return s
}

// ECCClosedLoop is the closed-loop undervolting preset (Bacha &
// Teodorescu, ISCA 2013): the baseline fleet with each node's
// controller stepping the operating point below the advised one while
// correctable ECC stays silent, and backing off a notch on onset —
// margins reclaimed by feedback rather than by the risk model alone.
func ECCClosedLoop() Scenario {
	s := Baseline()
	s.Name = "ecc-closedloop"
	s.Description = "closed-loop undervolting: creep below the advised point while correctable ECC is quiet, back off on onset"
	s.ECCLoop = true
	return s
}

// Presets returns the bundled scenario catalogue, sorted by name.
func Presets() []Scenario {
	out := []Scenario{
		Baseline(),
		DiurnalBurst(),
		HeteroBins(),
		ThermalSummer(),
		ModeChurn(),
		DroopAttack(),
		AgingYear(),
		Fleet100k(),
		DriftCadence(),
		ECCClosedLoop(),
	}
	out = append(out, RecharactCadences()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the preset names in catalogue order.
func Names() []string {
	ps := Presets()
	names := make([]string, len(ps))
	for i, s := range ps {
		names[i] = s.Name
	}
	return names
}

// ByName returns the preset with the given name.
func ByName(name string) (Scenario, error) {
	for _, s := range Presets() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown preset %q (known: %v)", name, Names())
}
