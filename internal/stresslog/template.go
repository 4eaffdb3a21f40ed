package stresslog

import (
	"time"

	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/healthlog"
	"uniserver/internal/power"
	"uniserver/internal/stress"
	"uniserver/internal/telemetry"
	"uniserver/internal/vfr"
)

// Compiled is a daemon's snapshot image: the schedule position,
// pending triggers, published-margin history and virus archive,
// copied out of the source daemon so the source may keep running. The
// history's tables are shared, not copied: a published table is never
// written. Its fields are exported for encoding only.
type Compiled struct {
	Refresh power.DRAMRefreshModel
	Period  time.Duration
	Online  bool
	LastRun time.Time
	Pending []healthlog.TriggerReason
	History []MarginVector
	Archive []stress.ArchiveEntry // sorted by name
}

// Compile copies the daemon into its snapshot image.
func (d *Daemon) Compile() *Compiled {
	return &Compiled{
		Refresh: d.refresh,
		Period:  d.period,
		Online:  d.online,
		LastRun: d.lastRun,
		Pending: append([]healthlog.TriggerReason(nil), d.pending...),
		History: append([]MarginVector(nil), d.history...),
		Archive: d.archive.Entries(),
	}
}

// Table returns the last published table in the history, or nil when
// there is none.
func (c *Compiled) Table() *vfr.EOPTable {
	if len(c.History) == 0 {
		return nil
	}
	return c.History[len(c.History)-1].Table
}

// StampInto overwrites d with the image, rebinding it to the arena's
// clock, machine, memory and health daemon; a zero Daemon is a valid
// destination. The history's vectors are copied into d's own slice and
// share the image's tables; the archive is copied, so a
// re-characterization on the stamped daemon evolves independently of
// the image. The caller owns d exclusively and re-hooks
// TriggerHandler.
func (c *Compiled) StampInto(d *Daemon, clock *telemetry.Clock, m *cpu.Machine,
	mem *dram.MemorySystem, health *healthlog.Daemon) {
	d.clock = clock
	d.machine = m
	d.mem = mem
	d.health = health
	d.refresh = c.Refresh
	d.period = c.Period
	d.online = c.Online
	d.lastRun = c.LastRun
	d.pending = append(d.pending[:0], c.Pending...)
	if d.archive == nil {
		d.archive = stress.NewArchive()
	}
	d.archive.Replace(c.Archive)
	d.history = append(d.history[:0], c.History...)
}
