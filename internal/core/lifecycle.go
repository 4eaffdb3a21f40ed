package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"uniserver/internal/power"
	"uniserver/internal/predictor"
	"uniserver/internal/silicon"
	"uniserver/internal/stresslog"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// HandleCrash is the ecosystem's safety response when a runtime window
// crashes at an extended operating point: fall back to the nominal
// guardbanded point immediately (the hypervisor reconfigures "to
// operate within safe margins"), and queue a re-characterization so
// the StressLog can publish updated margins.
func (e *Ecosystem) HandleCrash() error {
	nominal := e.Machine.Spec.Nominal
	if err := e.Hypervisor.ApplyPoint(nominal); err != nil {
		return fmt.Errorf("core: falling back to nominal: %w", err)
	}
	// DRAM falls back to the JEDEC interval too.
	for _, dom := range e.Mem.RelaxedDomains() {
		if err := dom.SetRefresh(vfr.NominalRefresh); err != nil {
			return err
		}
	}
	e.mode = vfr.ModeNominal
	return nil
}

// Recharacterize runs a fresh StressLog campaign (the machine goes
// offline for its duration), refreshes the EOP table and the advisor,
// and returns the new margin vector.
func (e *Ecosystem) Recharacterize() (stresslog.MarginVector, error) {
	vec, err := e.Stress.RunCampaign(stresslog.DefaultTargetParams(), e.src.Split())
	if err != nil {
		return stresslog.MarginVector{}, err
	}
	e.setTable(vec.Table)
	e.advisor.Table = vec.Table
	// Flush campaign-provoked errors out of the trigger window.
	e.Clock.Advance(2 * time.Hour)
	return vec, nil
}

// DeploymentSummary aggregates a long-horizon supervised deployment.
type DeploymentSummary struct {
	Windows           int
	Crashes           int
	Fallbacks         int
	Recharacterized   int
	WindowsAtEOP      int
	WindowsAtNominal  int
	EnergySavedWh     float64
	CorrectableMasked int
	// DRAMCorrected counts DRAM retention errors corrected by SECDED
	// across all windows — the counter relaxed-refresh scenarios and
	// hot seasons move.
	DRAMCorrected int
	// MeanCPUTempC is the mean die temperature over the deployment —
	// the observable ambient-temperature scenarios exist to shift.
	MeanCPUTempC       float64
	FinalAgeShiftMV    float64
	FinalSafeVoltageMV int
	// Epochs is the per-epoch margin trajectory of a multi-epoch
	// lifetime (nil for plain single-epoch deployments, so existing
	// summaries — and their fingerprints — are untouched).
	Epochs []EpochSummary `json:"epochs,omitempty"`

	// Adaptive-policy counters. All four stay zero — and JSON-silent —
	// unless the corresponding policy is armed, so policy-less
	// deployments keep their existing summaries and fingerprints.
	//
	// RecharTriggered and RecharSuppressed count the drift gate's
	// decisions on scheduled campaigns: run (predicted margin drift
	// exceeded the armed fraction) versus skip (margins still fresh).
	RecharTriggered  int `json:"rechar_triggered,omitempty"`
	RecharSuppressed int `json:"rechar_suppressed,omitempty"`
	// UndervoltSteps and ECCBackoffs count the closed-loop controller's
	// moves below the advised point and its retreats on ECC onset.
	UndervoltSteps int `json:"undervolt_steps,omitempty"`
	ECCBackoffs    int `json:"ecc_backoffs,omitempty"`
}

// Deployment is a supervised closed-loop deployment in progress: the
// reentrant form of the Figure 2 runtime loop. Each Step advances one
// observation window; the caller owns the cadence, so a fleet engine
// can interleave many nodes' deployments on independent goroutines and
// barrier-synchronize them into cluster epochs. A Deployment is bound
// to one Ecosystem and inherits its single-goroutine discipline: never
// Step the same Deployment from two goroutines at once.
type Deployment struct {
	eco      *Ecosystem
	mode     vfr.Mode
	risk     float64
	wl       workload.Profile
	aging    silicon.AgingModel
	ageHours float64 // stressed hours a window adds at wl's activity
	nominalW float64
	tempSumC float64
	sum      DeploymentSummary

	// ledger caches the energy ledger's draw for the last (point,
	// activity) pair Step priced; the point changes only on mode
	// changes, fallbacks and the ECC loop.
	ledger ledgerMemo

	// Lifetime trajectory bookkeeping (lifetime.go): epochs holds the
	// closed epochs, the epoch* fields describe the one in progress.
	// The trajectory only materializes in Summary once FastForward has
	// run at least once, so single-epoch deployments are unchanged.
	epochs            []EpochSummary
	epochGapDays      int
	epochStartWindows int
	epochStartRechar  int
	epochEntryAge     float64
	epochEntrySafe    int

	// Drift policy (SetDriftPolicy): gate scheduled campaigns on the
	// predicted margin drift accumulated since the last one.
	driftOn         bool
	driftFrac       float64
	lastCampaignAge float64

	// ECC closed loop (SetECCLoop): creep the operating point below the
	// advised one while correctable errors stay at or under the
	// threshold; back off on onset. eccExtraMV is the controller's
	// current offset below the advised point.
	eccOn        bool
	eccThreshold int
	eccExtraMV   int
}

// ledgerMemo memoizes the energy ledger's TotalW(point, activity, 55),
// keyed on the exact point and the activity's bits. A Deployment prices
// with one ecosystem's power model for its whole life, so the key is
// complete.
type ledgerMemo struct {
	point    vfr.Point
	activity uint64
	w        float64
	set      bool
}

// totalW returns m.TotalW(p, activity, 55), recomputing only on a new key.
func (l *ledgerMemo) totalW(m power.CPUModel, p vfr.Point, activity float64) float64 {
	if bits := math.Float64bits(activity); !l.set || l.point != p || l.activity != bits {
		l.point, l.activity, l.w, l.set = p, bits, m.TotalW(p, activity, 55), true
	}
	return l.w
}

// agingMemo is an arena's memo of the window step's aging, one entry
// per window since the stamp. The arena's nodes are stamped from a few
// archetypes and age at a few workload stresses, so window w of one
// node usually repeats window w of an earlier node bit for bit, and
// the entry spares its math.Pow. An entry is used only when its whole
// input matches bit for bit, so a stale entry is never wrong and the
// stamp leaves the memo as it is; a miss computes and overwrites. Its
// length is the longest deployment the arena has run.
type agingMemo struct {
	steps []agingStep
}

// agingStep maps one window's aging input — the model, the chip's
// stressed hours before the window and the hours it adds, as float64
// bits — to the chip's stressed hours and Vcrit shift after it. The
// zero step is exact for its own key: zero hours plus zero hours under
// the zero model is zero hours and a zero shift.
type agingStep struct {
	key          [4]uint64
	out, shiftMV float64
}

// ageWindow ages the chip by one window's stressed hours, as
// Chip.AgeBy does, through the arena's memo when it has one.
func (e *Ecosystem) ageWindow(model silicon.AgingModel, hours float64) {
	chip := e.Machine.Chip
	m, w := e.aging, e.windowsRun-1
	if m == nil || w < 0 {
		chip.AgeBy(model, hours)
		return
	}
	key := [4]uint64{
		math.Float64bits(model.CoeffMVPerKHour),
		math.Float64bits(model.Exponent),
		math.Float64bits(chip.StressedHours),
		math.Float64bits(hours),
	}
	for len(m.steps) <= w {
		m.steps = append(m.steps, agingStep{})
	}
	if s := &m.steps[w]; s.key == key {
		chip.StressedHours, chip.AgeShiftMV = s.out, s.shiftMV
		return
	}
	chip.AgeBy(model, hours)
	m.steps[w] = agingStep{key: key, out: chip.StressedHours, shiftMV: chip.AgeShiftMV}
}

// Closed-loop undervolting constants (Bacha & Teodorescu, ISCA 2013:
// reclaim voltage guardbands online, using correctable ECC errors as
// the early-warning signal).
const (
	// eccStepMV is the controller's per-decision voltage step, matching
	// the advisor's 5 mV backoff granularity.
	eccStepMV = 5
	// eccMaxExtraMV bounds how far below the advised point the
	// controller will creep before holding.
	eccMaxExtraMV = 40
)

// StartDeployment enters the requested mode and returns a stepper for
// the supervised loop. The returned Deployment has run zero windows.
func (e *Ecosystem) StartDeployment(mode vfr.Mode, riskTarget float64, wl workload.Profile) (*Deployment, error) {
	if _, err := e.EnterMode(mode, riskTarget, wl); err != nil {
		return nil, err
	}
	d := &Deployment{
		eco:           e,
		mode:          mode,
		risk:          riskTarget,
		wl:            wl,
		aging:         silicon.DefaultAgingModel(),
		ageHours:      silicon.StressedHoursOf(time.Minute, wl.CPUActivity),
		nominalW:      e.power.TotalW(e.Machine.Spec.Nominal, wl.CPUActivity, 55),
		epochEntryAge: e.Machine.Chip.AgeShiftMV,
	}
	if m, err := e.worstCPUMargin(); err == nil {
		d.epochEntrySafe = m.Safe.VoltageMV
	}
	d.lastCampaignAge = e.Machine.Chip.AgeShiftMV
	return d, nil
}

// SetDriftPolicy arms drift-gated re-characterization: scheduled
// (cadence) campaigns run only when the critical-voltage drift
// accumulated since the last campaign exceeds marginFrac of the
// headroom the Predictor's advised point currently reclaims below
// nominal. Crash- and error-threshold-triggered campaigns are the
// safety path and are never gated. marginFrac 0 is the degenerate
// "always due" policy — every scheduled campaign runs, reproducing the
// plain fixed cadence exactly. A negative marginFrac disarms.
func (d *Deployment) SetDriftPolicy(marginFrac float64) {
	if marginFrac < 0 {
		d.driftOn = false
		return
	}
	d.driftOn = true
	d.driftFrac = marginFrac
	d.lastCampaignAge = d.eco.Machine.Chip.AgeShiftMV
}

// SetECCLoop arms the correctable-ECC-feedback closed-loop undervolting
// controller (Bacha & Teodorescu, ISCA 2013): each quiet window — at
// most `threshold` correctable errors — steps the operating point one
// notch below the advised point, up to a bounded offset; a window over
// the threshold backs one notch off. Crashes, mode switches and
// re-characterizations re-derive the point through the usual EnterMode
// machinery and reset the controller. A negative threshold disarms.
func (d *Deployment) SetECCLoop(threshold int) {
	if threshold < 0 {
		d.eccOn = false
		return
	}
	d.eccOn = true
	d.eccThreshold = threshold
	d.eccExtraMV = 0
}

// Advise returns the operating point the Predictor currently
// recommends for the deployment's mode, risk target and workload —
// the pure decision surface the adaptive policies consult. Nothing is
// applied and no simulation state moves.
func (d *Deployment) Advise() (predictor.Advice, error) {
	return d.eco.Advise(d.mode, d.risk, d.wl)
}

// driftDue consults the Predictor against the live EOP table: the
// measured drift is the critical-voltage shift accumulated since the
// last campaign, and the gate opens when it reaches driftFrac of the
// headroom the advised point reclaims below nominal. With driftFrac 0
// it is always open (aging is monotone, so drift >= 0), which is what
// makes the zero policy degenerate to the plain cadence.
func (d *Deployment) driftDue() bool {
	adv, err := d.Advise()
	if err != nil {
		// Fail open: a broken decision surface is exactly what a fresh
		// characterization repairs.
		return true
	}
	m, err := d.eco.worstCPUMargin()
	if err != nil {
		return true
	}
	headroomMV := float64(m.Nominal.VoltageMV - adv.Point.VoltageMV)
	drift := d.eco.Machine.Chip.AgeShiftMV - d.lastCampaignAge
	return drift >= d.driftFrac*headroomMV
}

// scheduledCampaignDue reports whether a periodic-cadence campaign
// should run at now, the ecosystem clock's current instant. Without a
// drift policy it is exactly Stress.DueAt. With one, a due slot runs
// only when driftDue; otherwise the slot is consumed (SkipPeriodic) so
// the decision recurs at the next cadence tick, not on every following
// window.
func (d *Deployment) scheduledCampaignDue(now time.Time) bool {
	if !d.eco.Stress.DueAt(now) {
		return false
	}
	if !d.driftOn {
		return true
	}
	if !d.driftDue() {
		d.eco.Stress.SkipPeriodic()
		d.sum.RecharSuppressed++
		return false
	}
	d.sum.RecharTriggered++
	return true
}

// eccStep is one closed-loop controller decision, taken at the end of
// a window that neither crashed nor re-characterized. It is a pure
// function of the window's correctable-error count and the
// controller's own offset — no random draws — so it preserves the
// determinism contract untouched.
func (d *Deployment) eccStep(correctable int) error {
	e := d.eco
	if e.mode == vfr.ModeNominal {
		// A fallback re-derived the point at nominal; the controller
		// only creeps below an extended operating point.
		d.eccExtraMV = 0
		return nil
	}
	cur := e.Hypervisor.Point()
	switch {
	case correctable > d.eccThreshold:
		if d.eccExtraMV > 0 {
			d.eccExtraMV -= eccStepMV
			d.sum.ECCBackoffs++
			if err := e.Hypervisor.ApplyPoint(cur.WithVoltage(cur.VoltageMV + eccStepMV)); err != nil {
				return fmt.Errorf("core: ecc-loop backoff: %w", err)
			}
		}
	case d.eccExtraMV+eccStepMV <= eccMaxExtraMV:
		d.eccExtraMV += eccStepMV
		d.sum.UndervoltSteps++
		if err := e.Hypervisor.ApplyPoint(cur.WithVoltage(cur.VoltageMV - eccStepMV)); err != nil {
			return fmt.Errorf("core: ecc-loop step: %w", err)
		}
	}
	return nil
}

// Step advances the deployment by one observation window, implementing
// the full closed loop of Figure 2: the window runs at the current
// point, crashes trigger an immediate nominal fallback plus
// re-characterization and mode re-entry, HealthLog error-threshold
// triggers and the periodic schedule also force campaigns, and the
// silicon ages continuously so later campaigns publish drifted margins.
// The returned report is the window's raw observation (before any
// fallback the step performed in response to it).
func (d *Deployment) Step() (WindowReport, error) {
	e := d.eco
	rep := e.RuntimeWindow(d.wl)
	if rep.err != nil {
		return rep, rep.err
	}
	d.sum.Windows++
	d.sum.CorrectableMasked += rep.Correctable
	for _, n := range rep.DRAMHits {
		d.sum.DRAMCorrected += n
	}
	d.tempSumC += rep.CPUTempC
	if e.mode == vfr.ModeNominal {
		d.sum.WindowsAtNominal++
	} else {
		d.sum.WindowsAtEOP++
	}
	// Energy ledger: each window is one simulated minute.
	curW := d.ledger.totalW(e.power, e.Hypervisor.Point(), d.wl.CPUActivity)
	d.sum.EnergySavedWh += (d.nominalW - curW) / 60

	// Continuous aging at the workload's stress level.
	e.ageWindow(d.aging, d.ageHours)

	needCampaign := false
	if rep.Crashed {
		d.sum.Crashes++
		d.sum.Fallbacks++
		if err := e.HandleCrash(); err != nil {
			return rep, err
		}
		needCampaign = true
	}
	if rep.PendingTests > 0 {
		needCampaign = true
	}
	// Nothing after RuntimeWindow's clock advance has moved the clock,
	// so the window's instant is the clock's.
	if !needCampaign && d.scheduledCampaignDue(rep.now) {
		needCampaign = true
	}
	if needCampaign {
		if err := d.RecharacterizeNow(); err != nil {
			return rep, err
		}
	} else if d.eccOn {
		if err := d.eccStep(rep.Correctable); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// SwitchMode re-enters the deployment at a different operating mode
// and risk target mid-run — the "mode churn" lever: a fleet operator
// moving nodes between high-performance and low-power regimes as
// demand shifts. The advisor re-derives the V-F-R point from the
// current EOP table, so a switch after aging or re-characterization
// lands on the drifted margins, not the day-one ones.
func (d *Deployment) SwitchMode(mode vfr.Mode, riskTarget float64) error {
	if _, err := d.eco.EnterMode(mode, riskTarget, d.wl); err != nil {
		return err
	}
	d.mode = mode
	d.risk = riskTarget
	d.eccExtraMV = 0
	return nil
}

// SetWorkload swaps the guest profile the deployment steps with — the
// lever behind tenant churn and droop-virus attack injection. The
// energy ledger's nominal baseline is recomputed for the new activity
// factor so savings stay comparable across the switch.
func (d *Deployment) SetWorkload(wl workload.Profile) {
	d.wl = wl
	d.ageHours = silicon.StressedHoursOf(time.Minute, wl.CPUActivity)
	d.nominalW = d.eco.power.TotalW(d.eco.Machine.Spec.Nominal, wl.CPUActivity, 55)
}

// Workload returns the guest profile the deployment currently runs.
func (d *Deployment) Workload() workload.Profile { return d.wl }

// Summary returns the deployment totals so far, with the final margin
// and aging figures filled in from the ecosystem's current state.
func (d *Deployment) Summary() DeploymentSummary {
	sum := d.sum
	if sum.Windows > 0 {
		sum.MeanCPUTempC = d.tempSumC / float64(sum.Windows)
	}
	sum.FinalAgeShiftMV = d.eco.Machine.Chip.AgeShiftMV
	if m, err := d.eco.worstCPUMargin(); err == nil {
		sum.FinalSafeVoltageMV = m.Safe.VoltageMV
	}
	if len(d.epochs) > 0 {
		// Multi-epoch lifetime: close the in-progress epoch into a copy
		// of the trajectory (Summary must not mutate the deployment).
		sum.Epochs = append(append([]EpochSummary(nil), d.epochs...), d.openEpochRow())
	}
	return sum
}

// RunDeployment supervises `windows` observation windows of the given
// workload in the requested mode. It is the batch form of
// StartDeployment + Step: kept for callers that do not need the
// reentrant API.
func (e *Ecosystem) RunDeployment(mode vfr.Mode, riskTarget float64, wl workload.Profile, windows int) (DeploymentSummary, error) {
	d, err := e.StartDeployment(mode, riskTarget, wl)
	if err != nil {
		return DeploymentSummary{}, err
	}
	for w := 0; w < windows; w++ {
		if _, err := d.Step(); err != nil {
			return d.Summary(), err
		}
	}
	return d.Summary(), nil
}

// ErrNotCharacterized is returned by APIs that need PreDeployment to
// have run first.
var ErrNotCharacterized = errors.New("core: run PreDeployment first")

// worstCPUMargin returns the CPU margin with the least headroom, from
// the cache setTable maintains.
func (e *Ecosystem) worstCPUMargin() (vfr.Margin, error) {
	if e.worstComp == "" {
		return vfr.Margin{}, fmt.Errorf("core: no CPU margins")
	}
	return e.worstMargin, nil
}
