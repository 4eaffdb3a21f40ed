package healthlog

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"uniserver/internal/telemetry"
)

// Compiled is a daemon's snapshot image: every component's retained
// vectors with their sensor and error payloads concatenated into two
// slabs, each component owning the next Vecs vectors and each vector
// the next Sensors readings and Errors events. Compile builds it once
// per snapshot; StampInto replays it into an arena daemon with bulk
// copies — no per-vector allocations, no locks on the shared image. A
// Compiled is immutable once built and safe for concurrent StampInto
// calls. Its fields are exported for encoding only.
type Compiled struct {
	Config   Config
	Recorded uint64
	Crashes  uint64
	Comps    []CompiledComp // sorted by name
	Vecs     []CompiledVec
	Sensors  []telemetry.Reading
	Errors   []telemetry.ErrorEvent
}

// CompiledComp is one component's retained history and rolling-window
// bookkeeping.
type CompiledComp struct {
	Name     string
	Vecs     int
	WinStart int
	WinErrs  int
	LastTime time.Time
	Dirty    bool
}

// CompiledVec is an InfoVector with its slice payloads replaced by
// their lengths in the slabs.
type CompiledVec struct {
	Vec             telemetry.InfoVector // Sensors/Errors nil
	Sensors, Errors int
}

// Compile copies the daemon's recorded state into its snapshot image.
// Components are laid out in sorted name order so the image is
// reproducible regardless of map iteration. The image shares no
// storage with d, so d may keep recording. A failed log writer is not
// part of the image: stamped daemons write to their own.
func (d *Daemon) Compile() *Compiled {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := &Compiled{Config: d.cfg, Recorded: d.recorded, Crashes: d.crashes}
	for _, name := range slices.Sorted(maps.Keys(d.byComp)) {
		h := d.byComp[name]
		vecs := h.vecs()
		c.Comps = append(c.Comps, CompiledComp{Name: name, Vecs: len(vecs), WinStart: h.winStart,
			WinErrs: h.winErrs, LastTime: h.lastTime, Dirty: h.dirty})
		for _, v := range vecs {
			c.Sensors = append(c.Sensors, v.Sensors...)
			c.Errors = append(c.Errors, v.Errors...)
			cv := CompiledVec{Vec: v, Sensors: len(v.Sensors), Errors: len(v.Errors)}
			cv.Vec.Sensors, cv.Vec.Errors = nil, nil
			c.Vecs = append(c.Vecs, cv)
		}
	}
	return c
}

// Validate reports an image whose counts do not add up to its slabs or
// whose window cursor lies outside its history. A decoded image that passes stamps and records without
// indexing outside its slabs.
func (c *Compiled) Validate() error {
	vecs := 0
	for _, cc := range c.Comps {
		if cc.Vecs < 0 || cc.Vecs > len(c.Vecs)-vecs || cc.WinStart < 0 || cc.WinStart > cc.Vecs {
			return fmt.Errorf("healthlog: component %q claims %d of %d vectors left, window at %d",
				cc.Name, cc.Vecs, len(c.Vecs)-vecs, cc.WinStart)
		}
		vecs += cc.Vecs
	}
	sens, errs := 0, 0
	for i, cv := range c.Vecs {
		if cv.Sensors < 0 || cv.Sensors > len(c.Sensors)-sens || cv.Errors < 0 || cv.Errors > len(c.Errors)-errs {
			return fmt.Errorf("healthlog: vector %d claims %d of %d readings and %d of %d events left",
				i, cv.Sensors, len(c.Sensors)-sens, cv.Errors, len(c.Errors)-errs)
		}
		sens, errs = sens+cv.Sensors, errs+cv.Errors
	}
	if vecs != len(c.Vecs) || sens != len(c.Sensors) || errs != len(c.Errors) {
		return fmt.Errorf("healthlog: image owns %d of %d vectors, %d of %d readings, %d of %d events",
			vecs, len(c.Vecs), sens, len(c.Sensors), errs, len(c.Errors))
	}
	return nil
}

// StampInto overwrites d with the image, timestamping with clock and
// writing future log lines to out; a zero Daemon is a valid
// destination. It reuses d's component histories (or parked spares)
// with their vector buffers, and its sensor/error slabs; stamped
// vectors' Sensors/Errors alias the daemon-owned slabs
// (capacity-clamped, so a consumer appending to a queried vector
// reallocates instead of corrupting a neighbour). Listeners and
// trigger callbacks are dropped — they are closures over the source's
// sibling daemons — and the caller re-subscribes.
//
// The caller must own d exclusively: StampInto is the arena path, not
// a concurrent mutation of a live daemon.
func (c *Compiled) StampInto(d *Daemon, clock *telemetry.Clock, out io.Writer) {
	d.cfg = c.Config
	d.clock = clock
	d.out = out
	d.recorded = c.Recorded
	d.crashes = c.Crashes
	d.writeErr = nil
	// Truncate rather than nil: an empty slice means "no callbacks"
	// exactly like nil does, and keeps the storage a following
	// RewireStressTrigger refills without allocating.
	d.listeners = d.listeners[:0]
	d.onTrigger = d.onTrigger[:0]

	d.sensorSlab = append(d.sensorSlab[:0], c.Sensors...)
	d.errorSlab = append(d.errorSlab[:0], c.Errors...)

	if d.byComp == nil {
		d.byComp = make(map[string]*compHistory, len(c.Comps))
	} else {
		// Sweep histories the image doesn't know (cross-snapshot arena
		// reuse) onto the spare list, buffers and all, for the image's
		// own components to take over below; same-snapshot stamps find
		// every key present.
		for name, h := range d.byComp {
			if !slices.ContainsFunc(c.Comps, func(cc CompiledComp) bool { return cc.Name == name }) {
				delete(d.byComp, name)
				d.spare = append(d.spare, h)
			}
		}
	}
	vecs, sens, errs := c.Vecs, d.sensorSlab, d.errorSlab
	for _, cc := range c.Comps {
		h := d.history(cc.Name)
		h.reset()
		h.winStart = cc.WinStart
		h.winErrs = cc.WinErrs
		h.lastTime = cc.LastTime
		h.dirty = cc.Dirty
		for _, cv := range vecs[:cc.Vecs] {
			v := cv.Vec
			v.Sensors, sens = sens[:cv.Sensors:cv.Sensors], sens[cv.Sensors:]
			v.Errors, errs = errs[:cv.Errors:cv.Errors], errs[cv.Errors:]
			h.buf = append(h.buf, v)
		}
		vecs = vecs[cc.Vecs:]
	}
}

// RewireStressTrigger replaces every stress-trigger callback with f,
// reusing the callback slice's storage. Stamp-path use only: the
// caller must own the daemon exclusively (no concurrent Record), which
// is what licenses breaking the copy-on-write discipline OnStressTrigger
// maintains for live daemons.
func (d *Daemon) RewireStressTrigger(f func(TriggerReason)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onTrigger = append(d.onTrigger[:0], f)
}
