// Package stresslog implements the StressLog monitor of Section 3.D:
// the mechanism that takes a machine offline, stress-tests it with the
// workload suite (real benchmarks plus diagnostic viruses), and
// produces the new safe V-F-R operating margins as an output vector
// for the higher system layers.
//
// The daemon runs in two regimes, as in the paper:
//
//   - periodically over the machine's lifetime ("e.g. every 2-3
//     months") to track aging, and
//   - on demand, triggered by higher layers when the HealthLog
//     observes erratic behaviour (its correctable-error threshold).
//
// While a campaign runs, the HealthLog records the system events the
// campaign provokes (errors, sensor values, performance counters), and
// the StressLog wraps the needed information into the margin vector it
// hands upward.
//
// A daemon belongs to one ecosystem, which one goroutine runs at a
// time; it takes no locks.
package stresslog

import (
	"errors"
	"fmt"
	"time"

	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/healthlog"
	"uniserver/internal/power"
	"uniserver/internal/rng"
	"uniserver/internal/stress"
	"uniserver/internal/telemetry"
	"uniserver/internal/vfr"
)

// TargetParams are the "input stress target parameters from the higher
// system layers" that shape a campaign.
type TargetParams struct {
	// Runs is the number of consecutive sweeps per (core, benchmark).
	Runs int
	// CushionMV is the voltage cushion added above the worst observed
	// crash point before publishing.
	CushionMV int
	// RefreshIntervals is the DRAM sweep grid; empty uses the default.
	RefreshIntervals []time.Duration
	// RefreshDerate scales the longest error-free interval before
	// publishing (0 < derate <= 1); 0 uses the default 0.5.
	RefreshDerate float64
	// UseViruses includes GA/hand-coded stress viruses in the suite.
	UseViruses bool
	// DRAMPasses is the number of pattern-test passes per interval.
	DRAMPasses int
}

// DefaultTargetParams mirrors the paper's methodology: 3 consecutive
// runs, a cushion covering the ECC-onset window, a refresh sweep from
// nominal to 5 s, and viruses enabled.
func DefaultTargetParams() TargetParams {
	return TargetParams{
		Runs:      3,
		CushionMV: cpu.SafeCushionMV,
		RefreshIntervals: []time.Duration{
			64 * time.Millisecond, 128 * time.Millisecond, 256 * time.Millisecond,
			512 * time.Millisecond, time.Second, 1500 * time.Millisecond,
			2 * time.Second, 3 * time.Second, 4 * time.Second, 5 * time.Second,
		},
		RefreshDerate: 0.5,
		UseViruses:    true,
		DRAMPasses:    2,
	}
}

func (p TargetParams) validate() error {
	if p.Runs <= 0 {
		return errors.New("stresslog: Runs must be positive")
	}
	if p.CushionMV < 0 {
		return errors.New("stresslog: negative cushion")
	}
	if p.RefreshDerate < 0 || p.RefreshDerate > 1 {
		return errors.New("stresslog: RefreshDerate outside (0,1]")
	}
	if p.DRAMPasses <= 0 {
		return errors.New("stresslog: DRAMPasses must be positive")
	}
	return nil
}

// MarginVector is the output vector containing the new safe system
// V-F-R margins suggested to the software.
type MarginVector struct {
	Time time.Time
	// Table holds per-core safe margins plus the DRAM margin.
	Table *vfr.EOPTable
	// SafeRefresh is the published relaxed refresh interval for
	// non-reliable domains.
	SafeRefresh time.Duration
	// ZeroErrorRefresh is the longest interval observed error-free.
	ZeroErrorRefresh time.Duration
	// RefreshSavingsPct is the projected memory-power saving at
	// SafeRefresh versus nominal.
	RefreshSavingsPct float64
	// Campaign statistics.
	SweepsRun   int
	CrashesSeen int
	ECCEvents   int
}

// Daemon is the StressLog monitor. It has one owner: it is not safe
// for concurrent use.
type Daemon struct {
	clock   *telemetry.Clock
	machine *cpu.Machine
	mem     *dram.MemorySystem
	health  *healthlog.Daemon
	refresh power.DRAMRefreshModel
	period  time.Duration

	// online is false while a campaign runs: it refuses a campaign
	// started from inside one (a callback the campaign's records reach).
	online  bool
	lastRun time.Time
	pending []healthlog.TriggerReason
	history []MarginVector
	archive *stress.Archive
}

// New wires a StressLog daemon to the machine under test, the memory
// system, the HealthLog (which records events during campaigns) and
// the periodic re-characterization interval (the paper suggests every
// 2-3 months; pass that duration here).
func New(clock *telemetry.Clock, m *cpu.Machine, mem *dram.MemorySystem,
	health *healthlog.Daemon, refresh power.DRAMRefreshModel, period time.Duration) *Daemon {
	d := &Daemon{
		clock:   clock,
		machine: m,
		mem:     mem,
		health:  health,
		refresh: refresh,
		period:  period,
		online:  true,
		archive: stress.NewArchive(),
	}
	return d
}

// TriggerHandler returns the callback higher layers hook into
// healthlog.OnStressTrigger: it queues an on-demand campaign request.
func (d *Daemon) TriggerHandler() func(healthlog.TriggerReason) {
	return func(r healthlog.TriggerReason) {
		d.pending = append(d.pending, r)
	}
}

// PendingCount returns the number of queued on-demand trigger
// requests.
func (d *Daemon) PendingCount() int {
	return len(d.pending)
}

// DueAt reports whether the periodic re-characterization is due at
// now, the daemon clock's current instant: the window step passes the
// one its clock advance returned.
func (d *Daemon) DueAt(now time.Time) bool {
	return now.Sub(d.lastRun) >= d.period
}

// SetPeriod retargets the periodic re-characterization cadence — the
// paper's "every 2-3 months" dial, which lifetime scenarios sweep to
// compare 1/3/6-month schedules. Non-positive values are ignored.
func (d *Daemon) SetPeriod(p time.Duration) {
	if p <= 0 {
		return
	}
	d.period = p
}

// SkipPeriodic consumes the current periodic slot without running a
// campaign: lastRun advances to now, so DueAt stays false until
// a full period elapses again. This is how a drift policy declines a
// scheduled campaign — the skipped slot waits for the next cadence
// tick instead of re-arming on every window.
func (d *Daemon) SkipPeriodic() {
	d.lastRun = d.clock.Now()
}

// RunCampaign takes the machine offline, executes the stress suite on
// every core, sweeps the DRAM refresh grid, publishes the resulting
// margin vector, and brings the machine back online.
func (d *Daemon) RunCampaign(params TargetParams, src *rng.Source) (MarginVector, error) {
	if err := params.validate(); err != nil {
		return MarginVector{}, err
	}

	if !d.online {
		return MarginVector{}, errors.New("stresslog: campaign already in progress")
	}
	d.online = false
	defer func() { d.online = true }()

	suite := cpu.SPECSuite()
	if params.UseViruses {
		suite = append(suite, stress.HandCodedViruses()...)
		// Reuse the archived virus when one exists; evolving is
		// thousands of sweeps, and re-characterization campaigns
		// should not pay it twice.
		if virus, err := stress.ObtainVirus(d.archive, stress.DefaultGAConfig(),
			stress.MaxVoltageNoise, d.machine, d.machine.Chip.WorstCore(),
			src.SplitLabeled("ga")); err == nil {
			suite = append(suite, virus)
		}
	}

	vec := MarginVector{Time: d.clock.Now(), Table: vfr.NewEOPTable()}
	spec := d.machine.Spec

	// CPU margins: worst crash across the whole suite per core.
	for core := 0; core < spec.Cores; core++ {
		worstCrash := 0
		for _, b := range suite {
			results := d.machine.UndervoltSweep(core, b, params.Runs)
			for _, r := range results {
				vec.SweepsRun++
				vec.CrashesSeen++
				vec.ECCEvents += r.ECCErrors
				d.recordSweep(core, b, r)
			}
			if w := cpu.WorstCrash(results); w.CrashVoltageMV > worstCrash {
				worstCrash = w.CrashVoltageMV
			}
		}
		safe := worstCrash + params.CushionMV
		vec.Table.Set(vfr.Margin{
			Component:  fmt.Sprintf("%s/core%d", spec.Model, core),
			Nominal:    spec.Nominal,
			CrashPoint: spec.Nominal.WithVoltage(worstCrash),
			Safe:       spec.Nominal.WithVoltage(safe),
			CushionMV:  params.CushionMV,
		})
		d.clock.Advance(time.Duration(len(suite)*params.Runs) * time.Minute)
	}

	// DRAM margin: longest zero-error refresh interval, derated.
	intervals := params.RefreshIntervals
	if len(intervals) == 0 {
		intervals = DefaultTargetParams().RefreshIntervals
	}
	points, err := d.mem.CharacterizeRefresh(intervals, params.DRAMPasses, src.SplitLabeled("dram"))
	if err != nil {
		return MarginVector{}, fmt.Errorf("stresslog: dram characterization: %w", err)
	}
	maxSafe, ok := dram.MaxSafeRefresh(points)
	if !ok {
		maxSafe = vfr.NominalRefresh
	}
	vec.ZeroErrorRefresh = maxSafe
	derate := params.RefreshDerate
	if derate == 0 {
		derate = 0.5
	}
	safeRefresh := time.Duration(float64(maxSafe) * derate)
	if safeRefresh < vfr.NominalRefresh {
		safeRefresh = vfr.NominalRefresh
	}
	vec.SafeRefresh = safeRefresh
	vec.RefreshSavingsPct = d.refresh.SavingsPct(safeRefresh)
	vec.Table.Set(vfr.Margin{
		Component:   "dram/relaxed",
		Nominal:     vfr.Point{VoltageMV: 1, FreqMHz: 1, Refresh: vfr.NominalRefresh},
		CrashPoint:  vfr.Point{VoltageMV: 1, FreqMHz: 1, Refresh: maxSafe},
		Safe:        vfr.Point{VoltageMV: 1, FreqMHz: 1, Refresh: safeRefresh},
		CushionTime: maxSafe - safeRefresh,
	})
	for range points {
		d.clock.Advance(time.Minute)
	}

	d.lastRun = d.clock.Now()
	d.pending = nil
	d.history = append(d.history, vec)
	return vec, nil
}

// recordSweep feeds the HealthLog the events one sweep provoked, so
// the Predictor has labeled training data ("during a stress test, the
// HealthLog monitor will execute in parallel to record system
// events").
func (d *Daemon) recordSweep(core int, b cpu.Benchmark, r cpu.SweepResult) {
	if d.health == nil {
		return
	}
	comp := fmt.Sprintf("%s/core%d", d.machine.Spec.Model, core)
	v := telemetry.InfoVector{
		Time:      d.clock.Now(),
		Component: comp,
		Point:     d.machine.Spec.Nominal.WithVoltage(r.CrashVoltageMV),
		Sensors: []telemetry.Reading{
			{Kind: telemetry.SensorVoltage, Value: float64(r.CrashVoltageMV)},
			{Kind: telemetry.SensorFrequency, Value: float64(d.machine.Spec.Nominal.FreqMHz)},
		},
		Counters: telemetry.PerfCounters{
			Instructions: uint64(1e9 * b.Activity),
			Cycles:       1e9,
			CacheMisses:  uint64(1e6 * b.CacheStress),
		},
		Errors: []telemetry.ErrorEvent{
			{Kind: telemetry.ErrCrash, Component: comp, Count: 1, Detail: "stresslog sweep " + b.Name},
		},
	}
	if r.ECCErrors > 0 {
		v.Errors = append(v.Errors, telemetry.ErrorEvent{
			Kind: telemetry.ErrCorrectable, Component: comp + "/cache", Count: r.ECCErrors,
		})
	}
	d.health.Record(v)
}
