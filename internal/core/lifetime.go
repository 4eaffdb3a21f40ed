package core

import (
	"errors"
	"fmt"
	"time"

	"uniserver/internal/dram"
	"uniserver/internal/silicon"
	"uniserver/internal/telemetry"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// This file is the lifetime engine: the multi-epoch time model of
// Section 3.D. A deployment's lifetime is a sequence of windowed
// epochs separated by fast-forward gaps — weeks-to-months spans that
// advance the slow state (silicon aging, DRAM telegraph noise, the
// season, the re-characterization schedule) analytically instead of
// stepping half a million one-minute windows — with scheduled
// re-characterizations refreshing the EOP table mid-life ("these new
// values may need to be updated several times over the lifetime of a
// server", and AVATAR's argument that one-shot characterization
// cannot be trusted in the field).

// Gap is one fast-forward interval between lifetime epochs.
type Gap struct {
	// Days is the gap length in whole days. Fast-forward advances in
	// one-day coarse steps, which is what makes splitting a gap exact:
	// a 90-day gap and three 30-day gaps perform the identical
	// sequence of per-day aging and telegraph draws.
	Days int
	// Duty is the mean silicon stress (activity) the machine sustains
	// across the unsimulated span, in [0,1]. The aging power law
	// accumulates Days×24h at this stress.
	Duty float64
	// AmbientCPUC and AmbientDIMMC, when non-zero, retarget the
	// ambient temperatures at the start of the gap — the seasonal
	// lever (a gap from spring into summer lands the next epoch in a
	// hot machine room). Zero keeps the current ambient.
	AmbientCPUC  float64
	AmbientDIMMC float64
}

// Validate reports declaration errors.
func (g Gap) Validate() error {
	if g.Days <= 0 {
		return fmt.Errorf("core: gap needs positive days, got %d", g.Days)
	}
	if g.Duty < 0 || g.Duty > 1 {
		return fmt.Errorf("core: gap duty %g outside [0,1]", g.Duty)
	}
	return nil
}

// LifetimePlan is a deployment's multi-epoch phase plan.
type LifetimePlan struct {
	// EpochWindows[i] is the number of runtime windows epoch i
	// simulates. At least one epoch is required.
	EpochWindows []int
	// Gaps[i] is the fast-forward interval preceding epoch i+1; its
	// length must be len(EpochWindows)-1.
	Gaps []Gap
	// RecharactEvery, when positive, is the scheduled
	// re-characterization cadence: the StressLog period is retargeted
	// to it, and every epoch entry where the cadence has elapsed since
	// the last campaign runs one before serving resumes. Zero keeps
	// the ecosystem's configured StressPeriod.
	RecharactEvery time.Duration
}

// UniformPlan is the common shape — `epochs` equal epochs of
// `windows` windows, separated by identical gaps — used by the CLI's
// -lifetime flag and the scenario compiler.
func UniformPlan(epochs, windows, gapDays int, duty float64) LifetimePlan {
	p := LifetimePlan{EpochWindows: make([]int, epochs)}
	for i := range p.EpochWindows {
		p.EpochWindows[i] = windows
	}
	if epochs > 1 {
		p.Gaps = make([]Gap, epochs-1)
		for i := range p.Gaps {
			p.Gaps[i] = Gap{Days: gapDays, Duty: duty}
		}
	}
	return p
}

// Validate reports declaration errors.
func (p LifetimePlan) Validate() error {
	if len(p.EpochWindows) == 0 {
		return errors.New("core: lifetime plan needs at least one epoch")
	}
	for i, w := range p.EpochWindows {
		if w <= 0 {
			return fmt.Errorf("core: epoch %d needs positive windows, got %d", i, w)
		}
	}
	if len(p.Gaps) != len(p.EpochWindows)-1 {
		return fmt.Errorf("core: plan has %d epochs but %d gaps (want %d)",
			len(p.EpochWindows), len(p.Gaps), len(p.EpochWindows)-1)
	}
	for i, g := range p.Gaps {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("core: gap %d: %w", i, err)
		}
	}
	if p.RecharactEvery < 0 {
		return fmt.Errorf("core: negative re-characterization cadence %v", p.RecharactEvery)
	}
	return nil
}

// TotalWindows returns the number of runtime windows the plan
// simulates across all epochs.
func (p LifetimePlan) TotalWindows() int {
	total := 0
	for _, w := range p.EpochWindows {
		total += w
	}
	return total
}

// Epochs returns the number of epochs in the plan.
func (p LifetimePlan) Epochs() int { return len(p.EpochWindows) }

// EpochSummary is one epoch's row of a deployment's margin
// trajectory: the aging and published-margin state the epoch entered
// with, and what happened during it. AgeShiftMV is nondecreasing
// across a lifetime (aging only accumulates), which is the
// monotone-drift signature lifetime scenarios assert.
type EpochSummary struct {
	// Epoch is the epoch index (0 = the initial deployment).
	Epoch int `json:"epoch"`
	// GapDays is the fast-forward span that preceded this epoch (0
	// for epoch 0).
	GapDays int `json:"gap_days"`
	// Windows is the number of runtime windows the epoch simulated.
	Windows int `json:"windows"`
	// AgeShiftMV is the chip's accumulated critical-voltage drift at
	// epoch entry, after the preceding gap's aging.
	AgeShiftMV float64 `json:"age_shift_mv"`
	// SafeVoltageMV is the worst-core published safe point the epoch
	// ran at (refreshed when an entry campaign ran).
	SafeVoltageMV int `json:"safe_voltage_mv"`
	// Recharacterized counts the StressLog campaigns during the epoch,
	// the cadence-driven entry campaign included.
	Recharacterized int `json:"recharacterized"`
}

// windowsPerDay is how many observation windows one coarse
// fast-forward day stands for.
const windowsPerDay = int(24 * time.Hour / telemetry.WindowQuantum)

// FastForward advances the ecosystem across a gap without stepping
// windows. Per coarse day it jumps the clock, ages the silicon at the
// gap's duty (the same closed-form power law the windowed path
// accumulates), and advances every DRAM VRT cell's telegraph state by
// a day's worth of switching in one draw (dram.CoarseToggleProb). At
// the end the thermal nodes and the DRAM temperature re-seat at
// ambient — months dwarf their RC constants.
//
// What fast-forward deliberately does NOT touch: the guests and the
// hypervisor (tenant traffic across gaps is not modeled), the
// HealthLog history (no windows, no information vectors), and the EOP
// table (only campaigns publish margins). The caller decides whether
// a re-characterization is due after the jump.
//
// Determinism: the only stream draws are one child split plus the VRT
// draws per day, so state after fast-forwarding N days is a pure
// function of the entry state and N — splitting one gap into several
// with the same total days and duty is exactly equivalent.
func (e *Ecosystem) FastForward(g Gap, model silicon.AgingModel) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if g.AmbientCPUC != 0 || g.AmbientDIMMC != 0 {
		cpuC, dimmC := e.cpuTherm.AmbientC, e.memTherm.AmbientC
		if g.AmbientCPUC != 0 {
			cpuC = g.AmbientCPUC
		}
		if g.AmbientDIMMC != 0 {
			dimmC = g.AmbientDIMMC
		}
		e.SetAmbient(cpuC, dimmC)
	}
	for day := 0; day < g.Days; day++ {
		if _, err := e.Clock.AdvanceCoarse(24 * time.Hour); err != nil {
			return fmt.Errorf("core: fast-forward day %d: %w", day, err)
		}
		e.Machine.Chip.Age(model, 24*time.Hour, g.Duty)
		daySrc := e.src.Split()
		for _, dom := range e.Mem.Domains {
			dram.ToggleVRTCoarse(dom, windowsPerDay, daySrc)
		}
		// Weak-cell population growth (SetWeakGrowth) appends its draws
		// to the same per-day child stream: a zero rate draws nothing,
		// and the parent stream never sees how much a child consumed, so
		// growth-free runs are bit-identical to the pre-growth engine.
		if e.weakGrowthPerDay > 0 {
			for _, dom := range e.Mem.Domains {
				dram.GrowWeakCells(dom, 1, e.weakGrowthPerDay, e.Mem.Model, daySrc)
			}
		}
	}
	// Months at ambient: die, DIMM and memory-system temperatures have
	// fully relaxed.
	e.cpuTherm.TempC = e.cpuTherm.AmbientC
	e.memTherm.TempC = e.memTherm.AmbientC
	e.Mem.TempC = e.memTherm.AmbientC
	return nil
}

// FastForward advances the deployment across a gap: the current epoch
// is closed into the margin trajectory, the ecosystem fast-forwards
// (aging at the deployment's model), and the next epoch's entry state
// is recorded. Call MaybeRecharacterize afterwards to honour the
// re-characterization cadence before stepping the new epoch.
func (d *Deployment) FastForward(g Gap) error {
	if err := d.eco.FastForward(g, d.aging); err != nil {
		return err
	}
	d.closeEpoch()
	d.epochGapDays = g.Days
	d.epochStartWindows = d.sum.Windows
	d.epochStartRechar = d.sum.Recharacterized
	d.epochEntryAge = d.eco.Machine.Chip.AgeShiftMV
	if m, err := d.eco.worstCPUMargin(); err == nil {
		d.epochEntrySafe = m.Safe.VoltageMV
	}
	return nil
}

// openEpochRow renders the in-progress epoch's trajectory row from
// the current counters — shared by closeEpoch (gap boundaries) and
// Summary (the final, still-open epoch), so the two can never drift.
func (d *Deployment) openEpochRow() EpochSummary {
	return EpochSummary{
		Epoch:           len(d.epochs),
		GapDays:         d.epochGapDays,
		Windows:         d.sum.Windows - d.epochStartWindows,
		AgeShiftMV:      d.epochEntryAge,
		SafeVoltageMV:   d.epochEntrySafe,
		Recharacterized: d.sum.Recharacterized - d.epochStartRechar,
	}
}

// closeEpoch appends the finished epoch to the trajectory.
func (d *Deployment) closeEpoch() {
	d.epochs = append(d.epochs, d.openEpochRow())
}

// SetCadence retargets the StressLog's periodic re-characterization
// interval — the lifetime plan's cadence dial. Zero or negative
// leaves the configured StressPeriod in place.
func (d *Deployment) SetCadence(every time.Duration) {
	if every > 0 {
		d.eco.Stress.SetPeriod(every)
	}
}

// MaybeRecharacterize runs a scheduled campaign if the periodic
// cadence has elapsed — the epoch-entry check the paper's "every 2-3
// months" schedule implies — and reports whether one ran. An armed
// drift policy gates the decision exactly as it does inside Step.
func (d *Deployment) MaybeRecharacterize() (bool, error) {
	if !d.scheduledCampaignDue(d.eco.Clock.Now()) {
		return false, nil
	}
	if err := d.RecharacterizeNow(); err != nil {
		return true, err
	}
	return true, nil
}

// RecharacterizeNow takes the node offline for a StressLog campaign,
// refreshes the EOP table, and re-enters the deployment's mode at the
// drifted margins. It is the single re-characterization path: crash-
// and threshold-triggered campaigns inside Step and cadence-driven
// epoch-entry campaigns all land here, so the Recharacterized counter
// means the same thing everywhere.
func (d *Deployment) RecharacterizeNow() error {
	e := d.eco
	if _, err := e.Recharacterize(); err != nil {
		return err
	}
	d.sum.Recharacterized++
	if _, err := e.EnterMode(d.mode, d.risk, d.wl); err != nil {
		return err
	}
	// The fresh table is the new drift baseline, and the re-derived
	// point supersedes any closed-loop offset.
	d.lastCampaignAge = e.Machine.Chip.AgeShiftMV
	d.eccExtraMV = 0
	if d.sum.Windows == d.epochStartWindows {
		// Entry campaign: the epoch runs at the refreshed point, so the
		// trajectory records the post-campaign margin.
		if m, err := e.worstCPUMargin(); err == nil {
			d.epochEntrySafe = m.Safe.VoltageMV
		}
	}
	return nil
}

// RunLifetime supervises a full multi-epoch lifetime: epoch 0's
// windows, then per subsequent epoch a fast-forward gap, a
// cadence-driven re-characterization check, and the epoch's windows.
// It is the batch form the CLI's single-node -lifetime mode uses; the
// fleet engine drives the same primitives per node with its own
// stepping loop.
func (e *Ecosystem) RunLifetime(mode vfr.Mode, riskTarget float64, wl workload.Profile, plan LifetimePlan) (DeploymentSummary, error) {
	if err := plan.Validate(); err != nil {
		return DeploymentSummary{}, err
	}
	d, err := e.StartDeployment(mode, riskTarget, wl)
	if err != nil {
		return DeploymentSummary{}, err
	}
	d.SetCadence(plan.RecharactEvery)
	for ei, windows := range plan.EpochWindows {
		if ei > 0 {
			if err := d.FastForward(plan.Gaps[ei-1]); err != nil {
				return d.Summary(), err
			}
			if _, err := d.MaybeRecharacterize(); err != nil {
				return d.Summary(), err
			}
		}
		for w := 0; w < windows; w++ {
			if _, err := d.Step(); err != nil {
				return d.Summary(), err
			}
		}
	}
	return d.Summary(), nil
}
