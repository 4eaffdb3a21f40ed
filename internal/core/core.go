// Package core wires the full UniServer ecosystem of Figure 2: the
// characterization and monitoring daemons (StressLog, HealthLog,
// Predictor) under the error-resilient hypervisor, on top of the
// simulated silicon, cache and DRAM substrates.
//
// The lifecycle follows Section 2 and 3 of the paper:
//
//  1. Pre-deployment: stress-test the hardware (benchmarks + GA
//     viruses) to reveal per-component Extended Operating Points;
//     fault-inject the hypervisor to learn which of its objects need
//     selective protection; train the failure Predictor on the
//     campaign's labeled data.
//  2. Deployment: the Hypervisor applies the Predictor-advised V-F-R
//     point for the requested mode (high-performance or low-power)
//     and places critical state on the reliable memory domain.
//  3. Runtime: the HealthLog records information vectors every window;
//     the Hypervisor masks errors, isolates faulty resources, and a
//     correctable-error flood triggers StressLog re-characterization.
package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/faultinject"
	"uniserver/internal/healthlog"
	"uniserver/internal/hypervisor"
	"uniserver/internal/power"
	"uniserver/internal/predictor"
	"uniserver/internal/rng"
	"uniserver/internal/stresslog"
	"uniserver/internal/telemetry"
	"uniserver/internal/thermal"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// Options configure an Ecosystem.
type Options struct {
	// Seed drives every stochastic component; identical seeds yield
	// identical ecosystems and experiment outcomes.
	Seed uint64
	// Part selects the CPU model (defaults to the i5-4200U of Table 2).
	Part cpu.PartSpec
	// Mem configures the DRAM system (defaults to the paper's testbed).
	Mem dram.Config
	// Hyp configures the hypervisor host.
	Hyp hypervisor.Config
	// StressPeriod is the periodic re-characterization interval
	// (paper: every 2-3 months).
	StressPeriod time.Duration
	// HealthLogOut optionally receives the JSON-lines system logfile.
	HealthLogOut io.Writer
	// AmbientCPUC and AmbientDIMMC set the initial ambient
	// temperatures the die and DIMM thermal nodes relax toward; zero
	// means the defaults (28 and 34 °C — an air-conditioned room).
	// Scenario layers change ambient mid-run via SetAmbient.
	AmbientCPUC  float64
	AmbientDIMMC float64
}

// DefaultOptions returns the paper-shaped configuration.
func DefaultOptions() Options {
	hcfg := hypervisor.DefaultConfig()
	part := cpu.PartI5_4200U()
	hcfg.Cores = part.Cores * 4 // SMT-ish host threads for vCPUs
	hcfg.Nominal = part.Nominal
	return Options{
		Seed:         1,
		Part:         part,
		Mem:          dram.DefaultConfig(),
		Hyp:          hcfg,
		StressPeriod: 75 * 24 * time.Hour, // ~2.5 months
	}
}

// defaultAmbient replaces zero ambient temperatures with the defaults.
func (o *Options) defaultAmbient() {
	if o.AmbientCPUC == 0 {
		o.AmbientCPUC = 28
	}
	if o.AmbientDIMMC == 0 {
		o.AmbientDIMMC = 34
	}
}

// SetPart rebinds the options to a different CPU part — a silicon bin
// in a heterogeneous fleet — rewiring the hypervisor host shape
// (thread count, nominal point) that DefaultOptions derived from the
// default part.
func (o *Options) SetPart(part cpu.PartSpec) {
	o.Part = part
	o.Hyp.Cores = part.Cores * 4
	o.Hyp.Nominal = part.Nominal
}

// Ecosystem is one fully wired UniServer node.
type Ecosystem struct {
	Clock      *telemetry.Clock
	Machine    *cpu.Machine
	Mem        *dram.MemorySystem
	Health     *healthlog.Daemon
	Stress     *stresslog.Daemon
	Model      *predictor.Model
	Hypervisor *hypervisor.Hypervisor

	opts     Options
	src      *rng.Source
	table    *vfr.EOPTable
	advisor  *predictor.Advisor
	power    power.CPUModel
	refresh  power.DRAMRefreshModel
	mode     vfr.Mode
	cpuTherm *thermal.Node
	memTherm *thermal.Node
	trip     thermal.Trip

	// weakGrowthPerDay is the DRAM weak-cell activation rate applied
	// across fast-forward gaps (expected new weak cells per DIMM per
	// day); zero — the default — keeps the fabricated population fixed
	// and draws nothing. See SetWeakGrowth.
	weakGrowthPerDay float64

	// Worst-CPU-margin cache, recomputed whenever a characterization
	// campaign installs a table (setTable). The published table is
	// treated as immutable, so the per-window and per-mode-entry paths
	// read the cache instead of re-scanning the table's components.
	worstComp   string
	worstMargin vfr.Margin

	// predictorAcc is the predictor's accuracy on its training
	// samples, set by PreDeployment.
	predictorAcc float64

	// windowsRun counts RuntimeWindow invocations; Snapshot and Reseed
	// refuse once it is non-zero (see snapshot.go).
	windowsRun int

	// Per-window scratch state, owned by RuntimeWindow. None of it is
	// observable between windows; it exists so steady-state stepping
	// does not allocate (see DESIGN.md "Performance").
	coreNames []string             // precomputed "model/coreN" component names
	dramSrc   rng.Source           // reseeded child stream for the DRAM window
	dramHits  map[string]int       // owner → errors, cleared every window
	sensors   [3]telemetry.Reading // the window vector's readings; Record keeps none
	leak      voltMemo             // leakage voltage factor of the last point priced
	failProb  failMemo             // PredictedFailProb of the last point asked
	// aging is the arena's window aging memo (RestoreArena); nil on an
	// ecosystem built by New, whose windows each run once.
	aging *agingMemo
}

// dramwinLabel is the hoisted stream label of the per-window DRAM
// sample (stream-identical to SplitLabeled("dramwin") every window).
var dramwinLabel = rng.MakeLabel("dramwin")

// New builds an ecosystem. Pre-deployment characterization has not run
// yet; call PreDeployment before EnterMode.
func New(opts Options) (*Ecosystem, error) {
	if opts.Part.Cores == 0 {
		return nil, errors.New("core: options missing a CPU part (use DefaultOptions)")
	}
	opts.defaultAmbient()
	src := rng.New(opts.Seed)
	clock := telemetry.NewClock(time.Date(2017, 2, 1, 0, 0, 0, 0, time.UTC))
	machine := cpu.NewMachine(opts.Part, opts.Seed)
	mem, err := dram.New(opts.Mem, dram.DefaultRetentionModel(), src.SplitLabeled("dram"))
	if err != nil {
		return nil, fmt.Errorf("core: building memory system: %w", err)
	}
	health := healthlog.New(healthlog.DefaultConfig(), clock, opts.HealthLogOut)
	refresh := refreshModel(opts.Mem)
	stressd := stresslog.New(clock, machine, mem, health, refresh, opts.StressPeriod)
	health.OnStressTrigger(stressd.TriggerHandler())

	objects := hypervisor.NewObjectMap(hypervisor.DefaultProfiles(), src.SplitLabeled("objects"))
	hyp, err := hypervisor.New(opts.Hyp, objects, mem)
	if err != nil {
		return nil, fmt.Errorf("core: building hypervisor: %w", err)
	}

	e := &Ecosystem{
		Clock:      clock,
		Machine:    machine,
		Mem:        mem,
		Health:     health,
		Stress:     stressd,
		Model:      predictor.NewModel(),
		Hypervisor: hyp,
		opts:       opts,
		src:        src,
		power:      power.DefaultCPUModel(),
		refresh:    refresh,
		mode:       vfr.ModeNominal,
		cpuTherm:   thermal.CPUNode(opts.AmbientCPUC),
		memTherm:   thermal.DIMMNode(opts.AmbientDIMMC),
		trip:       thermal.DefaultTrip(),
		dramHits:   make(map[string]int),
	}
	e.coreNames = make([]string, opts.Part.Cores)
	for c := range e.coreNames {
		e.coreNames[c] = fmt.Sprintf("%s/core%d", opts.Part.Model, c)
	}
	return e, nil
}

// refreshModel is the DRAM refresh power model of a node with the
// given memory. New builds it, and a stamp re-derives it.
func refreshModel(mem dram.Config) power.DRAMRefreshModel {
	return power.DRAMRefreshModel{DeviceGb: mem.DeviceGb, TotalMemW: 12}
}

// SetAmbient retargets the ambient temperatures the die and DIMM
// thermal nodes relax toward — the "variations of environmental
// conditions" lever scenario layers pull (seasonal heat, a failed CRAC
// unit, free cooling). The current temperatures are untouched; they
// drift toward the new ambient over the nodes' RC time constants.
func (e *Ecosystem) SetAmbient(cpuC, dimmC float64) {
	e.cpuTherm.AmbientC = cpuC
	e.memTherm.AmbientC = dimmC
}

// PreDeploymentReport summarizes the characterization phase.
type PreDeploymentReport struct {
	Margins          stresslog.MarginVector
	ProtectedObjects int
	FaultsInjected   int
	PredictorSamples int
	PredictorAcc     float64
}

// PreDeployment runs the full Section 3 pipeline: StressLog campaign
// (with viruses), hypervisor fault-injection characterization plus
// selective protection, and Predictor training on the labeled sweep
// data.
func (e *Ecosystem) PreDeployment() (PreDeploymentReport, error) {
	var rep PreDeploymentReport

	params := stresslog.DefaultTargetParams()
	vec, err := e.Stress.RunCampaign(params, e.src.SplitLabeled("campaign"))
	if err != nil {
		return rep, fmt.Errorf("core: stress campaign: %w", err)
	}
	e.setTable(vec.Table)
	rep.Margins = vec

	// Fault-injection characterization of the hypervisor (loaded run:
	// the paper shows load reveals an order of magnitude more faults).
	loaded, err := faultinject.RunCampaign(e.Hypervisor.Objects(), true,
		faultinject.PaperRuns, e.src.SplitLabeled("fi"))
	if err != nil {
		return rep, fmt.Errorf("core: fault injection: %w", err)
	}
	rep.FaultsInjected = loaded.Objects * loaded.Runs
	plan := faultinject.PlanProtection(loaded, 0.15)
	rep.ProtectedObjects = plan.Apply(e.Hypervisor.Objects())

	// Predictor training from labeled undervolt samples.
	samples := e.trainingSamples(3000)
	rep.PredictorSamples = len(samples)
	e.failProb = failMemo{}
	if err := e.Model.Fit(samples, 6, e.src.SplitLabeled("fit")); err != nil {
		return rep, fmt.Errorf("core: predictor training: %w", err)
	}
	rep.PredictorAcc = e.Model.Accuracy(samples)
	e.predictorAcc = rep.PredictorAcc
	e.advisor = predictor.NewAdvisor(e.Model, e.table)

	// The machine returns to service: move past the HealthLog's
	// error window so campaign-provoked errors (which are expected,
	// not erratic behaviour) cannot re-trigger stress requests.
	e.Clock.Advance(2 * time.Hour)
	return rep, nil
}

// trainingSamples labels random operating points with crash outcomes
// from the machine simulator — the data the StressLog sweeps generate.
func (e *Ecosystem) trainingSamples(n int) []predictor.Sample {
	src := e.src.SplitLabeled("samples")
	suite := cpu.SPECSuite()
	out := make([]predictor.Sample, 0, n)
	for i := 0; i < n; i++ {
		b := suite[src.Intn(len(suite))]
		uv := src.Range(0, 16)
		v := int(float64(e.Machine.Spec.Nominal.VoltageMV) * (1 - uv/100))
		res := e.Machine.RunAt(src.Intn(e.Machine.Spec.Cores), b, v)
		out = append(out, predictor.Sample{
			F: predictor.Features{
				UndervoltPct:   uv,
				DroopIntensity: b.DroopIntensity,
				TempC:          src.Range(45, 70),
			},
			Crashed: res.Crashed,
		})
	}
	return out
}

// PredictorAcc returns the predictor's accuracy on its training
// samples (zero before PreDeployment). A stamp carries it from its
// snapshot.
func (e *Ecosystem) PredictorAcc() float64 { return e.predictorAcc }

// Table returns the published EOP table (nil before PreDeployment).
func (e *Ecosystem) Table() *vfr.EOPTable { return e.table }

// setTable installs a freshly published EOP table and precomputes the
// worst-CPU-margin lookup every mode entry and window used to rescan
// the table for. Characterization campaigns are the only writers of
// the table, so the cache is recomputed exactly when the answer can
// change.
func (e *Ecosystem) setTable(t *vfr.EOPTable) {
	e.table = t
	e.worstComp, e.worstMargin = worstCPU(t)
}

// worstCPU returns the table's CPU component with the least headroom,
// the highest safe voltage, and its margin; "" when it has none.
func worstCPU(t *vfr.EOPTable) (comp string, worst vfr.Margin) {
	for _, c := range t.Components() {
		m, err := t.Lookup(c)
		if err != nil || m.Component == "dram/relaxed" {
			continue
		}
		if comp == "" || m.Safe.VoltageMV > worst.Safe.VoltageMV {
			comp, worst = c, m
		}
	}
	return comp, worst
}

// SetWeakGrowth arms DRAM weak-cell population growth across
// fast-forward gaps: the expected number of newly-activated weak cells
// per DIMM per day (AVATAR, DSN 2015: the weak-cell population in the
// field is not static). Zero — the default — keeps the fabricated
// population fixed and consumes no random draws, so pre-existing
// streams are untouched.
func (e *Ecosystem) SetWeakGrowth(cellsPerDIMMPerDay float64) {
	e.weakGrowthPerDay = cellsPerDIMMPerDay
}

// Advise consults the Predictor against the live EOP table for the
// operating point it would recommend in the given mode at the given
// risk target, without applying anything. It is the pure decision
// surface EnterMode applies and the adaptive policies (drift-gated
// re-characterization, closed-loop undervolting) query between
// campaigns.
func (e *Ecosystem) Advise(mode vfr.Mode, riskTarget float64, wl workload.Profile) (predictor.Advice, error) {
	if e.advisor == nil {
		return predictor.Advice{}, errors.New("core: run PreDeployment first")
	}
	// The system point must be safe for the worst core: the component
	// with the least headroom, precomputed when the table was published.
	worst := e.worstComp
	if worst == "" {
		return predictor.Advice{}, errors.New("core: no CPU margins in table")
	}
	return e.advisor.Advise(worst, mode, predictor.Features{
		DroopIntensity: wl.DroopIntensity,
		TempC:          55,
	}, riskTarget)
}

// EnterMode asks the Predictor for the component point satisfying the
// risk target and applies it through the Hypervisor: the CPU point
// from the worst core's margin, and the DRAM refresh margin on the
// relaxed domains.
func (e *Ecosystem) EnterMode(mode vfr.Mode, riskTarget float64, wl workload.Profile) (vfr.Point, error) {
	adv, err := e.Advise(mode, riskTarget, wl)
	if err != nil {
		return vfr.Point{}, err
	}
	if err := e.Hypervisor.ApplyPoint(adv.Point); err != nil {
		return vfr.Point{}, err
	}
	if dm, err := e.table.Lookup("dram/relaxed"); err == nil {
		if err := e.Hypervisor.ApplyRefresh(dm.Safe); err != nil {
			return vfr.Point{}, err
		}
	}
	e.mode = adv.Mode
	return adv.Point, nil
}

// PowerReport compares the node's CPU power at the current point
// against nominal for the given workload activity.
type PowerReport struct {
	Mode       vfr.Mode
	Point      vfr.Point
	NominalW   float64
	CurrentW   float64
	SavingsPct float64
	// RefreshSavingsPct is the memory-power saving from the relaxed
	// refresh interval.
	RefreshSavingsPct float64
}

// Power computes the report for a workload activity factor.
func (e *Ecosystem) Power(activity float64) PowerReport {
	nominal := e.Machine.Spec.Nominal
	cur := e.Hypervisor.Point()
	nomW := e.power.TotalW(nominal, activity, 55)
	curW := e.power.TotalW(cur, activity, 55)
	rep := PowerReport{
		Mode:       e.mode,
		Point:      cur,
		NominalW:   nomW,
		CurrentW:   curW,
		SavingsPct: 100 * (nomW - curW) / nomW,
	}
	if len(e.Mem.RelaxedDomains()) > 0 {
		rep.RefreshSavingsPct = e.refresh.SavingsPct(e.Mem.RelaxedDomains()[0].Refresh)
	}
	return rep
}

// WindowReport summarizes one runtime observation window.
type WindowReport struct {
	Crashed     bool
	Correctable int
	// DRAMCorrected counts the retention errors SECDED corrected in
	// guest and hypervisor memory.
	DRAMCorrected int
	PendingTests  int
	// CPUTempC and ThermalAlarm report the thermal state: alarm level
	// 1 is a warning event, 2 forced a fallback to nominal.
	CPUTempC     float64
	ThermalAlarm int

	// now is the window's clock instant; err is the thermal trip's
	// failed fallback to nominal, which Deployment.Step returns.
	now time.Time
	err error
}

// RuntimeWindow advances the deployment by one observation window: the
// running guests execute at the current point, cache and DRAM errors
// are sampled, the HealthLog records the information vector, and the
// Hypervisor applies its masking/isolation policy. A crash (the
// Predictor got it wrong, or conditions drifted) is reported so the
// caller can fall back to nominal and trigger re-characterization.
func (e *Ecosystem) RuntimeWindow(wl workload.Profile) WindowReport {
	e.windowsRun++
	now := e.Clock.Advance(time.Minute)
	rep := WindowReport{now: now}
	point := e.Hypervisor.Point()
	bench := cpu.Benchmark{
		Name:           wl.Name,
		DroopIntensity: wl.DroopIntensity,
		CacheStress:    0.5,
		Activity:       wl.CPUActivity,
	}
	core := e.src.Intn(e.Machine.Spec.Cores)
	out := e.Machine.RunAt(core, bench, point.VoltageMV)
	comp := e.coreNames[core]

	// Thermal step: dissipated power heats the die; die temperature
	// feeds back into the leakage term next window. The DIMMs follow
	// the memory-subsystem power at the current refresh interval, and
	// the retention model sees the updated temperature.
	cpuW := e.power.TotalWAt(point, wl.CPUActivity, e.leak.factor(e.power, point.VoltageMV), e.cpuTherm.TempC)
	rep.CPUTempC = e.cpuTherm.Step(cpuW, time.Minute)
	memW := e.refresh.TotalMemW
	for _, dom := range e.Mem.Domains {
		if !dom.Reliable { // the first relaxed domain, without RelaxedDomains' slice
			memW = e.refresh.TotalW(dom.Refresh)
			break
		}
	}
	e.Mem.TempC = e.memTherm.Step(memW, time.Minute)

	e.sensors = [3]telemetry.Reading{
		{Kind: telemetry.SensorVoltage, Value: float64(point.VoltageMV)},
		{Kind: telemetry.SensorPower, Value: cpuW},
		{Kind: telemetry.SensorTemperature, Value: rep.CPUTempC},
	}
	vec := telemetry.InfoVector{
		Time:      now, // nothing moves the clock after Advance
		Component: comp,
		Point:     point,
		Sensors:   e.sensors[:],
	}
	rep.ThermalAlarm = e.trip.Check(rep.CPUTempC)
	if rep.ThermalAlarm > 0 {
		vec.Errors = append(vec.Errors, telemetry.ErrorEvent{
			Kind: telemetry.ErrThermal, Component: comp, Count: 1,
		})
		if rep.ThermalAlarm == 2 {
			// Thermal excursions shrink voltage margins: retreat to
			// nominal until conditions recover.
			if err := e.HandleCrash(); err != nil {
				rep.err = fmt.Errorf("core: thermal-trip fallback: %w", err)
			}
		}
	}
	if out.Crashed {
		rep.Crashed = true
		vec.Errors = append(vec.Errors, telemetry.ErrorEvent{
			Kind: telemetry.ErrCrash, Component: comp, Count: 1,
		})
	}
	if out.ECCErrors > 0 {
		rep.Correctable += out.ECCErrors
		vec.Errors = append(vec.Errors, telemetry.ErrorEvent{
			Kind: telemetry.ErrCorrectable, Component: comp, Count: out.ECCErrors,
		})
		e.Hypervisor.MaskCorrectable(core, out.ECCErrors)
	}
	e.Health.Record(vec)

	// DRAM window: retention errors land on owners; ECC corrects them
	// (correctable) and the hypervisor masks them from guests. The
	// child stream and the hit map are per-ecosystem scratch: stream-
	// identical to SplitLabeled("dramwin") and re-cleared every window.
	e.dramSrc = e.src.SplitWith(dramwinLabel)
	clear(e.dramHits)
	e.Hypervisor.Allocator().SimulateWindowInto(&e.dramSrc, e.dramHits)
	for _, n := range e.dramHits {
		rep.DRAMCorrected += n
	}
	if rep.DRAMCorrected > 0 {
		e.Hypervisor.MaskCorrectable(-1, rep.DRAMCorrected)
	}
	rep.PendingTests = e.Stress.PendingCount()
	return rep
}

// voltMemo caches the power model's leakage voltage factor for the last
// voltage the window step priced. Its only varying input is the
// voltage: the model is fixed between stamps (New and RestoreInto set
// it, and RestoreInto clears the memo), and the point moves only on
// mode changes, fallbacks and the ECC loop, so most windows reuse it.
type voltMemo struct {
	mv  int
	vf  float64
	set bool
}

// factor returns m.VoltageFactor(mv), recomputing only on a new mv.
func (c *voltMemo) factor(m power.CPUModel, mv int) float64 {
	if !c.set || c.mv != mv {
		c.mv, c.vf, c.set = mv, m.VoltageFactor(mv), true
	}
	return c.vf
}
