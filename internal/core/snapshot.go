package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/healthlog"
	"uniserver/internal/hypervisor"
	"uniserver/internal/power"
	"uniserver/internal/predictor"
	"uniserver/internal/rng"
	"uniserver/internal/stresslog"
	"uniserver/internal/telemetry"
	"uniserver/internal/thermal"
	"uniserver/internal/vfr"
)

// Snapshot is a characterized ecosystem as a set of immutable,
// pointer-free images of every component (see images), down to the
// position of every RNG stream and the simulated clock. The intended
// use is checkpoint/restore of pre-deployment characterization (the
// gem5-style trick): run New + PreDeployment once per distinct (seed,
// part, memory) configuration, Snapshot the result, and stamp a node
// per consumer (RestoreInto) instead of re-running the multi-second
// campaign. Save and LoadSnapshot write and read the same images. A
// snapshot holds no pointer into its source that the source can still
// write — its weak cells, which nothing writes once appended, are
// shared the way stamps share them — so the source may keep running;
// and it is never written after it is built, so any number of workers
// may stamp from it concurrently.
//
// Stamped nodes do not copy the bulk images at all: a node's DRAM
// weak cells, VRT indices and telegraph bitsets alias the snapshot's
// slabs, and its hypervisor object inventory aliases the snapshot's.
// The cells and indices are never written in place, and weak-cell
// growth copies them before it appends; the bitsets and the inventory
// are copied on the node's first write (inside dram: VRT flips;
// inside hypervisor: selective protection). Every stamped node
// therefore reads the snapshot for as long as it runs, which makes
// immutability a contract with every package, not only with the
// stamp: none outside hypervisor may write
// hypervisor.ObjectMap.Objects, which is exported for reading (a
// DIMM's weak cells are private to dram), and the concurrent-writer
// test pins the snapshot's bytes.
//
// A snapshot is the pre-deployment checkpoint only: Snapshot refuses
// an ecosystem that has no published table, has entered a mode or has
// run a window. That is the one point where the thermal state is
// exactly what a stamp re-derives from ambient and every image holds a
// table and an advisor, so a stamped ecosystem is indistinguishable,
// stream for stream and byte for byte, from its source. In the field,
// margins are refreshed by live re-characterization, never by
// restoring a checkpoint.
type Snapshot struct {
	img images
	// coreNames is derived from img's part: the per-window component
	// names, built once here instead of with fmt on every stamp.
	coreNames []string
}

// images is the snapshot's content, field for field the ecosystem
// state a stamp overwrites. It is what Save encodes: gob encodes its
// fields, which are all exported and pointer-free (the history's
// tables encode through vfr's own format), and nothing in it is a map,
// so the encoding is deterministic; the bulk slabs inside Mem and Hyp
// are unexported, out of gob's sight, and encode as columns. The
// published table is the last entry of Stress.History, and the advisor
// is the model over it.
type images struct {
	Opts    Options // HealthLogOut always nil
	Clock   time.Time
	Src     uint64
	Machine cpu.Image
	Mem     dram.FlatMemory
	Health  healthlog.Compiled
	Stress  stresslog.Compiled
	Hyp     hypervisor.Image
	Model   predictor.Model
	// PredictorAcc is the model's accuracy on its training samples.
	PredictorAcc     float64
	Power            power.CPUModel
	Refresh          power.DRAMRefreshModel
	WeakGrowthPerDay float64
	Trip             thermal.Trip
	WorstComp        string
	WorstMargin      vfr.Margin
}

// Snapshot captures the characterized ecosystem as images. Every
// image is a copy, except the DRAM weak cells, which the images share
// copy-on-write (dram.MemorySystem.Flatten), and the published EOP
// tables, which nothing writes once published; so the live ecosystem
// can keep running (or be discarded) without disturbing later stamps.
// It returns an error outside the pre-deployment checkpoint: before
// PreDeployment, after a mode entry, or once a runtime window has run.
func (e *Ecosystem) Snapshot() (*Snapshot, error) {
	switch {
	case e.advisor == nil: // PreDeployment sets it after the table
		return nil, fmt.Errorf("core: snapshot: %w", ErrNotCharacterized)
	case e.mode != vfr.ModeNominal:
		return nil, errors.New("core: snapshot after mode entry is unsupported; snapshot between PreDeployment and EnterMode")
	case e.windowsRun > 0:
		return nil, fmt.Errorf("core: snapshot after %d runtime windows is unsupported (thermal state would be lost on restore); snapshot before the first window", e.windowsRun)
	}
	hyp, err := e.Hypervisor.Image()
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	s := &Snapshot{img: images{
		Opts:             e.opts,
		Clock:            e.Clock.Now(),
		Src:              e.src.State(),
		Machine:          e.Machine.Image(),
		Mem:              *e.Mem.Flatten(),
		Health:           *e.Health.Compile(),
		Stress:           *e.Stress.Compile(),
		Hyp:              hyp,
		Model:            *e.Model,
		PredictorAcc:     e.predictorAcc,
		Power:            e.power,
		Refresh:          e.refresh,
		WeakGrowthPerDay: e.weakGrowthPerDay,
		Trip:             e.trip,
		WorstComp:        e.worstComp,
		WorstMargin:      e.worstMargin,
	}}
	s.img.Opts.HealthLogOut = nil
	s.derive()
	return s, nil
}

// derive fills the snapshot's derived state from its images.
func (s *Snapshot) derive() {
	part := s.img.Opts.Part
	s.coreNames = make([]string, part.Cores)
	for i := range s.coreNames {
		s.coreNames[i] = fmt.Sprintf("%s/core%d", part.Model, i)
	}
}

// RestoreTemplate is Snapshot under its former name: a snapshot is
// already the compiled form. It exists only for the frozen benchmark
// harness, which still calls it by that name.
type RestoreTemplate = Snapshot

// Compile returns s: a snapshot is already the compiled form. It
// exists only for the frozen benchmark harness.
func (s *Snapshot) Compile() *RestoreTemplate { return s }

// RestoreOptions rebind the per-node surfaces a stamped ecosystem must
// not share with its snapshot siblings.
type RestoreOptions struct {
	// HealthLogOut receives the stamped ecosystem's JSON-lines health
	// log from here on; nil discards. Lines recorded before the
	// snapshot were written to the original's writer and are not
	// replayed (the fleet cache captures and replays them itself).
	HealthLogOut io.Writer
	// AmbientCPUC and AmbientDIMMC re-seat the thermal nodes, with
	// exactly the Options semantics: zero means the defaults (28 and
	// 34 °C). This is what lets cells that differ only in environment
	// share one characterization — pre-deployment never touches the
	// thermal state, so re-seating reproduces New verbatim.
	AmbientCPUC  float64
	AmbientDIMMC float64
}

// RestoreArena is one worker's reusable stamp destination: an
// ecosystem whose object graph is built once (on the first stamp) and
// overwritten in place by every later RestoreInto, so steady-state
// stamps allocate almost nothing. An arena is single-owner — one
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

// RestoreInto stamps an independent ecosystem from the snapshot into
// the arena — the only way to turn a snapshot into an ecosystem. The
// first stamp into an empty arena (cold) runs the same stamp functions
// on zero-valued components; later stamps (warm) overwrite the
// arena's graph in place. The returned ecosystem IS the arena's
// (reused across calls): it is valid until the next RestoreInto on the
// same arena.
func (s *Snapshot) RestoreInto(a *RestoreArena, opts RestoreOptions) (*Ecosystem, error) {
	if a.eco == nil {
		c := &Ecosystem{
			Clock:      telemetry.NewClock(time.Time{}),
			Machine:    &cpu.Machine{},
			Mem:        &dram.MemorySystem{},
			Health:     &healthlog.Daemon{},
			Stress:     &stresslog.Daemon{},
			Model:      &predictor.Model{},
			Hypervisor: &hypervisor.Hypervisor{},
			src:        &rng.Source{},
			cpuTherm:   &thermal.Node{},
			memTherm:   &thermal.Node{},
			dramHits:   make(map[string]int),
		}
		c.advisor = predictor.NewAdvisor(c.Model, nil)
		c.coreOf = func(string) int { return c.curCore }
		a.eco = c
		a.trigger = c.Stress.TriggerHandler()
	}

	img := &s.img
	c := a.eco
	c.opts = img.Opts
	c.opts.HealthLogOut = opts.HealthLogOut

	c.Clock.Reset(img.Clock)
	c.Machine.StampFrom(&img.Machine)
	img.Mem.StampInto(c.Mem) // shares the weak-cell slabs until first write
	img.Health.StampInto(c.Health, c.Clock, opts.HealthLogOut)
	c.Health.RewireStressTrigger(a.trigger)
	img.Stress.StampInto(c.Stress, c.Clock, c.Machine, c.Mem, c.Health)
	// Shares the object inventory until first write.
	if err := c.Hypervisor.StampFrom(&img.Hyp, c.Mem); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}

	*c.src = *rng.FromState(img.Src)
	*c.Model = img.Model
	c.failProb = failMemo{}
	c.predictorAcc = img.PredictorAcc
	c.table = img.Stress.Table() // shared: a published table is never written
	c.advisor.Table = c.table
	c.power = img.Power
	c.leak = voltMemo{}
	c.refresh = img.Refresh
	c.mode = vfr.ModeNominal
	c.weakGrowthPerDay = img.WeakGrowthPerDay
	c.trip = img.Trip
	c.worstComp = img.WorstComp
	c.worstMargin = img.WorstMargin
	c.windowsRun = 0

	c.coreNames = append(c.coreNames[:0], s.coreNames...)
	clear(c.dramHits)
	// c.coreOf captures the (stable) arena ecosystem; c.curCore and
	// c.dramSrc are per-window scratch, always written before read.

	c.opts.AmbientCPUC, c.opts.AmbientDIMMC = opts.AmbientCPUC, opts.AmbientDIMMC
	c.opts.defaultAmbient()
	*c.cpuTherm = *thermal.CPUNode(c.opts.AmbientCPUC)
	*c.memTherm = *thermal.DIMMNode(c.opts.AmbientDIMMC)
	return c, nil
}

// Reseed re-keys the ecosystem's runtime-facing random streams to a
// fresh seed — the archetype-clone hook. A fleet that characterizes
// one ecosystem per silicon/DRAM bin stamps a node per member and
// Reseeds each with the node's own seed, so everything the deployment
// draws from here on — per-window core sampling, DRAM retention
// windows, fast-forward telegraph draws, re-characterization
// campaigns, machine measurement noise — diverges per node while the
// characterized state (published EOP table, weak-cell population,
// trained predictor, protected objects) stays the bin's.
//
// The main stream is repositioned at exactly the state a fresh
// New(seed) ecosystem carries into deployment: construction and
// PreDeployment consume only labeled child streams, never the main
// stream, so rng.New(seed) is that state verbatim. The machine's
// measurement stream moves to a labeled split of the same seed
// ("machine/runtime" — a label no construction-time consumer uses),
// repositioned in place so the StressLog daemon's machine reference
// observes it too. Like Snapshot, reseeding is only exact before the
// first window, where no runtime state could alias the old streams.
func (e *Ecosystem) Reseed(seed uint64) error {
	if e.windowsRun > 0 {
		return fmt.Errorf("core: reseed after %d runtime windows is unsupported; reseed before the first window", e.windowsRun)
	}
	e.opts.Seed = seed
	e.src = rng.New(seed)
	e.Machine.ReseedStream(rng.New(seed).SplitLabeled("machine/runtime").State())
	return nil
}
