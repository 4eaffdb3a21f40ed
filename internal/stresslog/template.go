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
// copied out of the source daemon so stamping needs no locks on
// shared state and the source may keep running. Its fields are
// exported for encoding only.
type Compiled struct {
	Refresh power.DRAMRefreshModel
	Period  time.Duration
	Online  bool
	LastRun time.Time
	Pending []healthlog.TriggerReason
	History []MarginVector        // each Table a private copy
	Archive []stress.ArchiveEntry // sorted by name
}

// Compile copies the daemon into its snapshot image.
func (d *Daemon) Compile() *Compiled {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := &Compiled{
		Refresh: d.refresh,
		Period:  d.period,
		Online:  d.online,
		LastRun: d.lastRun,
		Pending: append([]healthlog.TriggerReason(nil), d.pending...),
		History: append([]MarginVector(nil), d.history...),
		Archive: d.archive.Entries(),
	}
	for i, vec := range c.History {
		if vec.Table != nil {
			t := &vfr.EOPTable{}
			t.CopyFrom(vec.Table)
			c.History[i].Table = t
		}
	}
	return c
}

// StampInto overwrites d with the image, rebinding it to the arena's
// clock, machine, memory and health daemon; a zero Daemon is a valid
// destination. History tables are deep-copied into d's existing table
// storage (CopyFrom reuses map buckets), and the archive likewise, so
// a re-characterization on the stamped daemon evolves independently of
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

	old := d.history
	d.history = d.history[:0]
	for i, vec := range c.History {
		if vec.Table != nil {
			var t *vfr.EOPTable
			if i < len(old) {
				t = old[i].Table
			}
			if t == nil {
				t = &vfr.EOPTable{}
			}
			t.CopyFrom(vec.Table)
			vec.Table = t
		}
		d.history = append(d.history, vec)
	}
}
