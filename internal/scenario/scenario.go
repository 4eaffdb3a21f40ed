// Package scenario is the declarative campaign layer over the
// concurrent fleet runtime: a Scenario names one reproducible fleet
// experiment — silicon-bin mix, ambient temperature model, VM arrival
// pattern, scheduled mode switches, droop-attack injections — and a
// campaign fans a scenario×seed grid out across fleet.Run invocations
// in parallel, merging the per-run Summary fingerprints and
// comparative metrics into a machine-readable Report.
//
// Scenarios are data, not code: every field is a plain value, and the
// compiler (FleetConfig) lowers them onto the fleet engine's pure
// per-node and per-window hooks. The determinism contract therefore
// carries over unchanged — the same (scenario, seed) pair produces a
// byte-identical fleet fingerprint at any worker count and any
// campaign parallelism, which is what lets independent runs be
// compared against each other at all.
package scenario

import (
	"fmt"
	"math"
	"time"

	"uniserver/internal/core"
	"uniserver/internal/cpu"
	"uniserver/internal/fleet"
	"uniserver/internal/rng"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// Scenario declaratively describes one fleet experiment. The zero
// value of every optional field means "the baseline behaviour", so a
// Scenario is exactly the diff between the experiment and the plain
// homogeneous fleet.
type Scenario struct {
	Name        string
	Description string

	// Nodes, Windows and VMs size the experiment. VMs <= 0 means the
	// fleet default (3 per node). When Lifetime is enabled, Windows is
	// the per-epoch window count; the run simulates
	// Windows × Lifetime.Epochs windows in total.
	Nodes   int
	Windows int
	VMs     int

	// Mode and RiskTarget are the fleet-wide initial operating point.
	Mode       vfr.Mode
	RiskTarget float64

	// Bins assigns silicon bins round-robin across nodes by part
	// model name (see PartNames). Empty means a homogeneous fleet of
	// the default part.
	Bins []string

	// Ambient is the environment model (seasonal base, diurnal swing,
	// heatwave). The zero value is a constant air-conditioned room.
	Ambient AmbientModel

	// Arrival shapes the VM arrival pattern. The zero value is the
	// steady exponential stream.
	Arrival ArrivalModel

	// ModeSwitches are scheduled mid-run operating-mode changes.
	ModeSwitches []ModeSwitch

	// Attacks are droop-virus injections: a malicious guest profile
	// replaces the node's workload for a span of windows.
	Attacks []Attack

	// Lifetime stretches the scenario across aging epochs separated by
	// fast-forward gaps, with a scheduled re-characterization cadence.
	// The zero value is a plain single-epoch run.
	Lifetime LifetimeModel

	// DriftMarginFrac, when positive, arms drift-gated
	// re-characterization (fleet.DriftPolicy): scheduled cadence
	// campaigns run only when the predicted margin drift since the last
	// campaign exceeds this fraction of the advised headroom. Requires
	// an enabled Lifetime — the cadence it gates only ticks across
	// gaps. Zero disables (plain cadence).
	DriftMarginFrac float64

	// ECCLoop arms the per-node correctable-ECC-feedback closed-loop
	// undervolting controller (fleet.ECCPolicy); ECCThreshold is the
	// per-window correctable-error count it tolerates before backing
	// off (0 = back off on any error).
	ECCLoop      bool
	ECCThreshold int

	// WeakCellsPerDay, when positive, grows each node's DRAM weak-cell
	// population across lifetime gaps (expected newly-weak cells per
	// DIMM per day — AVATAR's non-static population). Requires an
	// enabled Lifetime: growth only advances across gaps.
	WeakCellsPerDay float64

	// Archetypes switches the fleet to archetype-clone
	// characterization (fleet.Config.Archetypes): nodes sharing a
	// silicon/DRAM bin characterize once per bin and clone, so
	// characterization cost is O(bins) instead of O(nodes). An
	// archetype scenario is deliberately a different experiment than a
	// per-node one (the bin seed drives the silicon lottery), so
	// flipping this field changes fingerprints.
	Archetypes bool
}

// LifetimeModel is the scenario-level declaration of the lifetime
// engine: how many windowed epochs, how long the unsimulated gaps
// between them are, how hard the machine works across them, how often
// the StressLog re-characterizes, and which season each epoch lands
// in.
type LifetimeModel struct {
	// Epochs is the number of windowed epochs; <= 1 disables the
	// lifetime axis.
	Epochs int
	// GapDays is the fast-forward span between consecutive epochs, in
	// whole days.
	GapDays int
	// GapDuty is the mean silicon stress across gaps, in [0,1].
	GapDuty float64
	// RecharactEveryDays, when positive, retargets the StressLog's
	// periodic cadence and re-characterizes at every epoch entry where
	// it has elapsed. Zero keeps the core default (~2.5 months).
	RecharactEveryDays int
	// SeasonCPUC / SeasonDIMMC, when non-empty, retarget the ambient
	// temperatures per epoch: epoch e lands at Season*[e % len]. The
	// two slices must have equal length, and a lifetime season
	// trajectory excludes a dynamic AmbientModel (one ambient driver
	// at a time).
	SeasonCPUC  []float64
	SeasonDIMMC []float64
}

// enabled reports whether the scenario is multi-epoch.
func (l LifetimeModel) enabled() bool { return l.Epochs > 1 }

// seasonAt returns the season value for epoch e, 0 when unset.
func seasonAt(seasons []float64, e int) float64 {
	if len(seasons) == 0 {
		return 0
	}
	return seasons[e%len(seasons)]
}

// AmbientModel is a pure function of the window index: a seasonal
// base, an optional diurnal sinusoid, and an optional heatwave step.
type AmbientModel struct {
	// BaseCPUC / BaseDIMMC are the resting ambients; zero means the
	// core defaults (28 / 34 °C).
	BaseCPUC  float64
	BaseDIMMC float64
	// SwingC is the diurnal half-amplitude added as a sinusoid with
	// the given period (in windows). SwingC 0 disables the swing.
	SwingC        float64
	PeriodWindows int
	// HeatStart/HeatWindows/HeatDeltaC describe a heatwave: DeltaC is
	// added to both ambients for windows [HeatStart, HeatStart+HeatWindows).
	HeatStart   int
	HeatWindows int
	HeatDeltaC  float64
}

// static reports whether the model never changes after window 0.
func (a AmbientModel) static() bool {
	return a.SwingC == 0 && a.HeatWindows == 0
}

// At returns the ambient pair for window w.
func (a AmbientModel) At(w int) (cpuC, dimmC float64) {
	cpuC, dimmC = a.BaseCPUC, a.BaseDIMMC
	if cpuC == 0 {
		cpuC = 28
	}
	if dimmC == 0 {
		dimmC = 34
	}
	if a.SwingC != 0 && a.PeriodWindows > 0 {
		s := a.SwingC * math.Sin(2*math.Pi*float64(w)/float64(a.PeriodWindows))
		cpuC += s
		dimmC += s
	}
	if w >= a.HeatStart && w < a.HeatStart+a.HeatWindows {
		cpuC += a.HeatDeltaC
		dimmC += a.HeatDeltaC
	}
	return cpuC, dimmC
}

// ArrivalModel shapes the VM arrival intensity over time. Diurnal and
// burst components compose multiplicatively; the zero value is the
// steady stream.
type ArrivalModel struct {
	// DiurnalDepth in [0,1) oscillates the rate sinusoidally with
	// PeriodWindows; 0 disables.
	DiurnalDepth  float64
	PeriodWindows int
	// BurstFactor multiplies the rate inside [BurstStart,
	// BurstStart+BurstWindows); 0 disables.
	BurstStart   int
	BurstWindows int
	BurstFactor  float64
}

// steady reports whether the model is the plain exponential stream.
func (m ArrivalModel) steady() bool {
	return m.DiurnalDepth == 0 && m.BurstFactor == 0
}

// rate compiles the model into a workload.RateFn (windows are one
// simulated minute each).
func (m ArrivalModel) rate() workload.RateFn {
	diurnal := workload.SteadyRate()
	if m.DiurnalDepth != 0 && m.PeriodWindows > 0 {
		diurnal = workload.DiurnalRate(time.Duration(m.PeriodWindows)*time.Minute, m.DiurnalDepth)
	}
	burst := workload.SteadyRate()
	if m.BurstFactor != 0 {
		burst = workload.BurstRate(time.Duration(m.BurstStart)*time.Minute,
			time.Duration(m.BurstWindows)*time.Minute, m.BurstFactor)
	}
	return func(at time.Duration) float64 { return diurnal(at) * burst(at) }
}

// ModeSwitch schedules a mid-run operating-mode change.
type ModeSwitch struct {
	// Window is when the switch lands (before that window steps).
	Window int
	// Node selects the target node; -1 means every node.
	Node       int
	Mode       vfr.Mode
	RiskTarget float64
}

// Attack is one droop-virus injection: node Node runs the
// workload.DroopVirus profile for Windows windows starting at Window,
// then reverts to its scenario workload.
type Attack struct {
	Node    int
	Window  int
	Windows int
}

// PartNames lists the silicon bins Bins may name.
func PartNames() []string { return []string{"i5-4200U", "i7-3970X"} }

// partByName resolves a bin name to its part spec.
func partByName(name string) (cpu.PartSpec, error) {
	switch name {
	case "i5-4200U":
		return cpu.PartI5_4200U(), nil
	case "i7-3970X":
		return cpu.PartI7_3970X(), nil
	}
	return cpu.PartSpec{}, fmt.Errorf("scenario: unknown silicon bin %q (known: %v)", name, PartNames())
}

// TotalWindows is the full simulated window axis: per-epoch windows
// times epochs. Scheduled features (mode switches, attacks, ambient
// phases, bursts) index this axis.
func (s Scenario) TotalWindows() int {
	if s.Lifetime.enabled() {
		return s.Windows * s.Lifetime.Epochs
	}
	return s.Windows
}

// Validate reports declaration errors.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Nodes <= 0 {
		return fmt.Errorf("scenario %s: need at least one node", s.Name)
	}
	if s.Windows <= 0 {
		return fmt.Errorf("scenario %s: need at least one window", s.Name)
	}
	if s.RiskTarget <= 0 || s.RiskTarget >= 1 {
		return fmt.Errorf("scenario %s: risk target %g outside (0,1)", s.Name, s.RiskTarget)
	}
	for _, b := range s.Bins {
		if _, err := partByName(b); err != nil {
			return err
		}
	}
	// Reject declarations whose periodic features are silently dead:
	// a depth or swing without a period would validate, compile to a
	// no-op, and make the experiment measure nothing.
	if s.Ambient.SwingC != 0 && s.Ambient.PeriodWindows <= 0 {
		return fmt.Errorf("scenario %s: ambient swing needs a positive PeriodWindows", s.Name)
	}
	if s.Ambient.HeatDeltaC != 0 && s.Ambient.HeatWindows <= 0 {
		return fmt.Errorf("scenario %s: heatwave needs a positive HeatWindows", s.Name)
	}
	if s.Arrival.DiurnalDepth != 0 && s.Arrival.PeriodWindows <= 0 {
		return fmt.Errorf("scenario %s: diurnal arrivals need a positive PeriodWindows", s.Name)
	}
	if s.Arrival.DiurnalDepth < 0 || s.Arrival.DiurnalDepth >= 1 {
		return fmt.Errorf("scenario %s: diurnal depth %g outside [0,1)", s.Name, s.Arrival.DiurnalDepth)
	}
	if s.Arrival.BurstFactor != 0 && s.Arrival.BurstWindows <= 0 {
		return fmt.Errorf("scenario %s: arrival burst needs a positive BurstWindows", s.Name)
	}
	// Lifetime declarations: reject both dead knobs (lifetime fields
	// without epochs would silently measure nothing) and conflicting
	// ambient drivers.
	l := s.Lifetime
	if !l.enabled() {
		if l.GapDays != 0 || l.GapDuty != 0 || l.RecharactEveryDays != 0 ||
			len(l.SeasonCPUC) > 0 || len(l.SeasonDIMMC) > 0 {
			return fmt.Errorf("scenario %s: lifetime fields set without Epochs > 1", s.Name)
		}
	} else {
		if l.GapDays <= 0 {
			return fmt.Errorf("scenario %s: lifetime needs positive GapDays", s.Name)
		}
		if l.GapDuty < 0 || l.GapDuty > 1 {
			return fmt.Errorf("scenario %s: lifetime gap duty %g outside [0,1]", s.Name, l.GapDuty)
		}
		if l.RecharactEveryDays < 0 {
			return fmt.Errorf("scenario %s: negative re-characterization cadence", s.Name)
		}
		if len(l.SeasonCPUC) != len(l.SeasonDIMMC) {
			return fmt.Errorf("scenario %s: SeasonCPUC and SeasonDIMMC lengths differ (%d vs %d)",
				s.Name, len(l.SeasonCPUC), len(l.SeasonDIMMC))
		}
		if len(l.SeasonCPUC) > 0 && !s.Ambient.static() {
			return fmt.Errorf("scenario %s: lifetime seasons and a dynamic ambient model both set; pick one ambient driver", s.Name)
		}
	}
	// Adaptive-policy declarations: same dead-knob discipline — a
	// policy field that could never act is a declaration error, not a
	// silent no-op.
	if s.DriftMarginFrac < 0 {
		return fmt.Errorf("scenario %s: negative drift margin fraction", s.Name)
	}
	if s.DriftMarginFrac > 0 && !s.Lifetime.enabled() {
		return fmt.Errorf("scenario %s: drift policy set without Epochs > 1 (the cadence it gates only ticks across lifetime gaps)", s.Name)
	}
	if s.ECCThreshold < 0 {
		return fmt.Errorf("scenario %s: negative ECC threshold", s.Name)
	}
	if s.ECCThreshold != 0 && !s.ECCLoop {
		return fmt.Errorf("scenario %s: ECCThreshold set without ECCLoop", s.Name)
	}
	if s.WeakCellsPerDay < 0 {
		return fmt.Errorf("scenario %s: negative weak-cell growth rate", s.Name)
	}
	if s.WeakCellsPerDay > 0 && !s.Lifetime.enabled() {
		return fmt.Errorf("scenario %s: weak-cell growth set without Epochs > 1 (growth only advances across lifetime gaps)", s.Name)
	}
	for _, sw := range s.ModeSwitches {
		if sw.Window < 0 || sw.Window >= s.TotalWindows() {
			return fmt.Errorf("scenario %s: mode switch window %d outside [0,%d)", s.Name, sw.Window, s.TotalWindows())
		}
		if sw.Node < -1 || sw.Node >= s.Nodes {
			return fmt.Errorf("scenario %s: mode switch node %d outside [-1,%d)", s.Name, sw.Node, s.Nodes)
		}
		if sw.RiskTarget <= 0 || sw.RiskTarget >= 1 {
			return fmt.Errorf("scenario %s: mode switch risk %g outside (0,1)", s.Name, sw.RiskTarget)
		}
	}
	for _, at := range s.Attacks {
		if at.Node < 0 || at.Node >= s.Nodes {
			return fmt.Errorf("scenario %s: attack node %d outside [0,%d)", s.Name, at.Node, s.Nodes)
		}
		if at.Window < 0 || at.Window >= s.TotalWindows() {
			return fmt.Errorf("scenario %s: attack window %d outside [0,%d)", s.Name, at.Window, s.TotalWindows())
		}
		if at.Windows <= 0 {
			return fmt.Errorf("scenario %s: attack duration must be positive", s.Name)
		}
	}
	return nil
}

// Scale returns a copy resized to the given node and window counts,
// with every window-indexed feature (mode switches, attacks, ambient
// phases, bursts) remapped proportionally and out-of-range node
// references clamped. It is how one preset serves both the full-size
// CLI run and the fast CI/test smoke grid without divergent
// declarations.
func (s Scenario) Scale(nodes, windows int) Scenario {
	if nodes <= 0 {
		nodes = s.Nodes
	}
	if windows <= 0 {
		windows = s.Windows
	}
	// Window-indexed features live on the total axis (all epochs
	// concatenated, TotalWindows), so both the ratio and the clamp
	// bound must use totals — per-epoch Windows would fold a
	// later-epoch feature into epoch 0 on lifetime scenarios.
	oldTotal := s.TotalWindows()
	scaled := s
	scaled.Windows = windows
	newTotal := scaled.TotalWindows()
	remapW := func(w int) int {
		if oldTotal == 0 {
			return 0
		}
		nw := w * newTotal / oldTotal
		if nw >= newTotal {
			nw = newTotal - 1
		}
		return nw
	}
	remapSpan := func(n int) int {
		if oldTotal == 0 {
			return 0
		}
		nn := n * newTotal / oldTotal
		if n > 0 && nn < 1 {
			nn = 1
		}
		return nn
	}
	out := s
	out.Nodes = nodes
	out.Windows = windows
	if s.VMs > 0 && s.Nodes > 0 {
		out.VMs = max(1, s.VMs*nodes/s.Nodes)
	}
	out.Ambient.PeriodWindows = remapSpan(s.Ambient.PeriodWindows)
	out.Ambient.HeatStart = remapW(s.Ambient.HeatStart)
	out.Ambient.HeatWindows = remapSpan(s.Ambient.HeatWindows)
	out.Arrival.PeriodWindows = remapSpan(s.Arrival.PeriodWindows)
	out.Arrival.BurstStart = remapW(s.Arrival.BurstStart)
	out.Arrival.BurstWindows = remapSpan(s.Arrival.BurstWindows)
	out.ModeSwitches = make([]ModeSwitch, len(s.ModeSwitches))
	for i, sw := range s.ModeSwitches {
		sw.Window = remapW(sw.Window)
		if sw.Node >= nodes {
			sw.Node = nodes - 1
		}
		out.ModeSwitches[i] = sw
	}
	out.Attacks = make([]Attack, len(s.Attacks))
	for i, at := range s.Attacks {
		at.Window = remapW(at.Window)
		at.Windows = remapSpan(at.Windows)
		if at.Node >= nodes {
			at.Node = nodes - 1
		}
		out.Attacks[i] = at
	}
	return out
}

// pertKey addresses one (node, window) perturbation.
type pertKey struct{ i, w int }

// FleetConfig compiles the scenario into a fleet.Config for the given
// seed. Every hook it installs is a pure function of (node index,
// window index) over data frozen here, so the fleet engine's
// determinism guarantee — byte-identical fingerprints at any worker
// count — holds for every scenario.
func (s Scenario) FleetConfig(seed uint64) (fleet.Config, error) {
	if err := s.Validate(); err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.DefaultConfig(s.Nodes)
	cfg.Seed = seed
	cfg.Windows = s.Windows
	cfg.VMs = s.VMs
	cfg.Mode = s.Mode
	cfg.RiskTarget = s.RiskTarget
	cfg.Archetypes = s.Archetypes

	// Lifetime axis: compile the model into a core plan — uniform
	// epochs of s.Windows windows, gaps with per-epoch season ambient
	// retargets, and the re-characterization cadence. The cloud layer
	// spans the concatenated epoch windows.
	if s.Lifetime.enabled() {
		l := s.Lifetime
		plan := core.UniformPlan(l.Epochs, s.Windows, l.GapDays, l.GapDuty)
		plan.RecharactEvery = time.Duration(l.RecharactEveryDays) * 24 * time.Hour
		for i := range plan.Gaps {
			// Gaps[i] precedes epoch i+1: the gap carries the node into
			// that epoch's season.
			plan.Gaps[i].AmbientCPUC = seasonAt(l.SeasonCPUC, i+1)
			plan.Gaps[i].AmbientDIMMC = seasonAt(l.SeasonDIMMC, i+1)
		}
		cfg.Lifetime = &plan
		cfg.Windows = plan.TotalWindows()
	}

	// Adaptive policies compile onto the fleet knobs directly.
	if s.DriftMarginFrac > 0 {
		cfg.Drift = &fleet.DriftPolicy{MarginFrac: s.DriftMarginFrac}
	}
	if s.ECCLoop {
		cfg.ECC = &fleet.ECCPolicy{Threshold: s.ECCThreshold}
	}
	cfg.WeakGrowthPerDay = s.WeakCellsPerDay

	// Per-node specs: silicon bins round-robin, window-0 ambient.
	bins := make([]cpu.PartSpec, len(s.Bins))
	for i, b := range s.Bins {
		p, err := partByName(b)
		if err != nil {
			return fleet.Config{}, err
		}
		bins[i] = p
	}
	base := cfg.BaseSpec()
	amb0CPU, amb0DIMM := s.Ambient.At(0)
	if s.Lifetime.enabled() {
		// Epoch 0 lands in season 0 (when declared): the initial spec
		// carries it, later epochs enter theirs through the gaps.
		if c := seasonAt(s.Lifetime.SeasonCPUC, 0); c != 0 {
			amb0CPU = c
		}
		if d := seasonAt(s.Lifetime.SeasonDIMMC, 0); d != 0 {
			amb0DIMM = d
		}
	}
	cfg.Node = func(i int) fleet.NodeSpec {
		spec := base
		if len(bins) > 0 {
			spec.Part = bins[i%len(bins)]
		}
		spec.AmbientCPUC, spec.AmbientDIMMC = amb0CPU, amb0DIMM
		return spec
	}

	// Arrival pattern: steady scenarios keep the fleet default stream
	// (same source label, same draws — byte-identical), patterned ones
	// pre-generate the schedule here.
	if !s.Arrival.steady() {
		arrivals, err := workload.PatternedStream(cfg.StreamDefaults(),
			s.Arrival.rate(), rng.New(seed).SplitLabeled("fleet/arrivals"))
		if err != nil {
			return fleet.Config{}, err
		}
		cfg.Arrivals = arrivals
	}

	// Scheduled interventions, expanded into a read-only (node,
	// window) table the hook indexes. Attacks install the droop-virus
	// profile at their start window and revert to the node's scenario
	// workload one window past their end.
	pert := make(map[pertKey]fleet.Perturbation)
	for _, sw := range s.ModeSwitches {
		lo, hi := sw.Node, sw.Node+1
		if sw.Node == -1 {
			lo, hi = 0, s.Nodes
		}
		for i := lo; i < hi; i++ {
			p := pert[pertKey{i, sw.Window}]
			p.Mode = &fleet.ModeChange{Mode: sw.Mode, RiskTarget: sw.RiskTarget}
			pert[pertKey{i, sw.Window}] = p
		}
	}
	virus := workload.DroopVirus()
	for _, at := range s.Attacks {
		p := pert[pertKey{at.Node, at.Window}]
		p.Workload = &virus
		pert[pertKey{at.Node, at.Window}] = p
		if end := at.Window + at.Windows; end < s.TotalWindows() {
			wl := base.Workload
			p := pert[pertKey{at.Node, end}]
			p.Workload = &wl
			pert[pertKey{at.Node, end}] = p
		}
	}

	// Ambient trajectory, precomputed per window when dynamic. The
	// window axis spans all epochs (the validator rejects dynamic
	// ambients combined with lifetime seasons, so the two drivers
	// never fight).
	var ambient []fleet.Ambient
	if !s.Ambient.static() {
		ambient = make([]fleet.Ambient, s.TotalWindows())
		for w := 0; w < s.TotalWindows(); w++ {
			c, d := s.Ambient.At(w)
			ambient[w] = fleet.Ambient{CPUC: c, DIMMC: d}
		}
	}

	if len(pert) > 0 || ambient != nil {
		cfg.Perturb = func(i, w int) fleet.Perturbation {
			p := pert[pertKey{i, w}]
			if ambient != nil {
				p.Ambient = &ambient[w]
			}
			return p
		}
	}
	return cfg, nil
}
