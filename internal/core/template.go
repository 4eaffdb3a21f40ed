package core

import (
	"fmt"
	"time"

	"uniserver/internal/dram"
	"uniserver/internal/healthlog"
	"uniserver/internal/predictor"
	"uniserver/internal/stresslog"
	"uniserver/internal/thermal"
	"uniserver/internal/vfr"
)

// RestoreTemplate is a Snapshot compiled for mass restoration: the
// snapshot's object graph flattened once into immutable, pointer-free
// images (DRAM weak-cell and VRT slabs, health-log sensor/error
// slabs, stress history, precomputed derived state such as the
// per-core component names and the snapshot clock origin), so that
// stamping a node becomes bulk copies into a reusable arena instead of
// an allocation walk over the graph. A template is immutable after
// Compile and safe for concurrent RestoreInto calls from any number of
// workers with zero shared-lock acquisitions: every mutex the legacy
// deep-restore path had to take on the shared snapshot is paid once at
// compile time.
//
// The two bulkiest images are not copied at all. A stamped node's
// DRAM weak cells and VRT indices alias the template's slabs, and its
// hypervisor object inventory aliases the proto's, until the node
// first writes them (copy-on-write inside dram and hypervisor: VRT
// toggles, pattern tests, weak-cell growth, reindexing, selective
// protection). Every stamped node therefore reads the template for as
// long as it runs, which makes immutability a contract with every
// package, not only with the stamp: no code outside dram may write
// dram.DIMM.Weak, and none outside hypervisor may write
// hypervisor.ObjectMap.Objects. Both fields are exported for reading;
// today nothing outside their packages writes either, and the
// concurrent-writer test pins the template's bytes.
//
// RestoreInto is pinned byte-for-byte against Snapshot.Restore by the
// equivalence tests: same fingerprints, same health-log bytes, same
// stream positions. The legacy path stays as the reference
// implementation.
type RestoreTemplate struct {
	proto     *Ecosystem // immutable; shared with the Snapshot
	origin    time.Time  // proto clock position, read once at compile
	health    *healthlog.Compiled
	stressd   *stresslog.Compiled
	flatMem   *dram.FlatMemory
	coreNames []string // precomputed "%s/core%d" setTable names
}

// Compile flattens the snapshot into its template form. The snapshot
// stays valid; template and snapshot share only immutable state.
func (s *Snapshot) Compile() *RestoreTemplate {
	t := &RestoreTemplate{
		proto:   s.proto,
		origin:  s.proto.Clock.Now(),
		health:  s.proto.Health.Compile(),
		stressd: s.proto.Stress.Compile(),
		flatMem: s.proto.Mem.Flatten(),
	}
	t.coreNames = make([]string, s.proto.opts.Part.Cores)
	for i := range t.coreNames {
		t.coreNames[i] = fmt.Sprintf("%s/core%d", s.proto.opts.Part.Model, i)
	}
	return t
}

// RestoreArena is one worker's reusable restore destination: an
// ecosystem whose object graph is built once (on the first stamp) and
// overwritten in place by every later RestoreInto, so steady-state
// restores allocate almost nothing. An arena is single-owner — one
// worker goroutine stamps and runs one node at a time — and must not
// be handed to a consumer that outlives the next stamp, which the
// fleet engine's node lifecycle guarantees (nothing retained from a
// finished node aliases ecosystem internals).
type RestoreArena struct {
	eco *Ecosystem
	// trigger is the arena stress daemon's campaign-request callback,
	// created once: the daemon pointer is stable across stamps, so the
	// closure stays valid and re-wiring it is allocation-free.
	trigger func(healthlog.TriggerReason)
}

// NewRestoreArena returns an empty arena; the first RestoreInto
// populates it.
func NewRestoreArena() *RestoreArena { return &RestoreArena{} }

// RestoreInto materializes an independent ecosystem from the template
// into the arena, equivalent in every observable way to
// Snapshot.Restore with the same options. The returned ecosystem IS
// the arena's (reused across calls): it is valid until the next
// RestoreInto on the same arena.
func (t *RestoreTemplate) RestoreInto(a *RestoreArena, opts RestoreOptions) (*Ecosystem, error) {
	if a.eco == nil {
		// Cold path: build the arena graph with the reference deep
		// clone, then cache the trigger closure for later re-wires.
		c, err := t.proto.clone(opts.HealthLogOut)
		if err != nil {
			return nil, fmt.Errorf("core: template restore: %w", err)
		}
		seatAmbient(c, opts)
		a.eco = c
		a.trigger = c.Stress.TriggerHandler()
		return c, nil
	}

	c := a.eco
	c.opts = t.proto.opts
	c.opts.HealthLogOut = opts.HealthLogOut

	c.Clock.Reset(t.origin)
	c.Machine.StampFrom(t.proto.Machine)
	t.flatMem.StampInto(c.Mem) // shares the weak-cell slabs until first write
	t.health.StampInto(c.Health, c.Clock, opts.HealthLogOut)
	c.Health.RewireStressTrigger(a.trigger)
	t.stressd.StampInto(c.Stress, c.Clock, c.Machine, c.Mem, c.Health)
	// Shares the proto's object inventory until first write.
	if err := c.Hypervisor.StampFrom(t.proto.Hypervisor, c.Mem); err != nil {
		return nil, fmt.Errorf("core: template restore: %w", err)
	}

	*c.src = *t.proto.src
	*c.Model = *t.proto.Model
	c.power = t.proto.power
	c.refresh = t.proto.refresh
	c.mode = t.proto.mode
	c.weakGrowthPerDay = t.proto.weakGrowthPerDay
	c.trip = t.proto.trip
	c.worstComp = t.proto.worstComp
	c.worstMargin = t.proto.worstMargin
	c.windowsRun = t.proto.windowsRun
	c.atEpochBoundary = t.proto.atEpochBoundary

	if t.proto.table == nil {
		c.table = nil
	} else {
		if c.table == nil {
			c.table = vfr.NewEOPTable()
		}
		c.table.CopyFrom(t.proto.table)
	}
	if t.proto.advisor == nil {
		c.advisor = nil
	} else {
		if c.advisor == nil {
			c.advisor = &predictor.Advisor{}
		}
		*c.advisor = *t.proto.advisor
		c.advisor.Model = c.Model
		c.advisor.Table = c.table
	}

	c.coreNames = append(c.coreNames[:0], t.coreNames...)
	clear(c.dramHits)
	// c.coreOf was created by the cold path's clone and captures the
	// (stable) arena ecosystem; c.curCore and c.dramSrc are per-window
	// scratch, always written before read.

	seatAmbient(c, opts)
	return c, nil
}

// seatAmbient applies RestoreOptions' thermal re-seat with exactly
// Restore's semantics, writing through the existing thermal nodes so
// arena stamps keep their pointers.
func seatAmbient(c *Ecosystem, opts RestoreOptions) {
	ambCPU, ambDIMM := opts.AmbientCPUC, opts.AmbientDIMMC
	if ambCPU == 0 {
		ambCPU = 28
	}
	if ambDIMM == 0 {
		ambDIMM = 34
	}
	c.opts.AmbientCPUC, c.opts.AmbientDIMMC = ambCPU, ambDIMM
	*c.cpuTherm = *thermal.CPUNode(ambCPU)
	*c.memTherm = *thermal.DIMMNode(ambDIMM)
}
