package healthlog

import (
	"io"
	"sort"
	"time"

	"uniserver/internal/telemetry"
)

// Compiled is an immutable flattened image of a Daemon's recorded
// state: every component's retained vectors with their sensor and
// error payloads concatenated into two slabs. Compile builds it once
// per restore template; StampInto replays it into a reusable arena
// daemon with bulk copies — no per-vector allocations, no locks on the
// shared image. A Compiled is safe for concurrent StampInto calls.
type Compiled struct {
	cfg      Config
	recorded uint64
	crashes  uint64
	writeErr error
	comps    []compiledComp
	vecs     []compiledVec
	sensors  []telemetry.Reading
	errs     []telemetry.ErrorEvent
}

type compiledComp struct {
	name         string
	vecLo, vecHi int // extent in Compiled.vecs
	winStart     int
	winErrs      int
	lastTime     time.Time
	dirty        bool
}

// compiledVec is an InfoVector with its slice payloads replaced by
// slab extents.
type compiledVec struct {
	vec            telemetry.InfoVector // Sensors/Errors nil
	sensLo, sensHi int
	errLo, errHi   int
}

// Compile flattens the daemon's recorded state into its immutable
// template image. Components are laid out in sorted name order so the
// image is reproducible regardless of map iteration.
func (d *Daemon) Compile() *Compiled {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := &Compiled{
		cfg:      d.cfg,
		recorded: d.recorded,
		crashes:  d.crashes,
		writeErr: d.writeErr,
		comps:    make([]compiledComp, 0, len(d.byComp)),
	}
	names := make([]string, 0, len(d.byComp))
	for name := range d.byComp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := d.byComp[name]
		vecs := h.vecs()
		cc := compiledComp{
			name:     name,
			vecLo:    len(c.vecs),
			vecHi:    len(c.vecs) + len(vecs),
			winStart: h.winStart,
			winErrs:  h.winErrs,
			lastTime: h.lastTime,
			dirty:    h.dirty,
		}
		for _, v := range vecs {
			cv := compiledVec{
				vec:    v,
				sensLo: len(c.sensors),
				sensHi: len(c.sensors) + len(v.Sensors),
				errLo:  len(c.errs),
				errHi:  len(c.errs) + len(v.Errors),
			}
			c.sensors = append(c.sensors, v.Sensors...)
			c.errs = append(c.errs, v.Errors...)
			cv.vec.Sensors = nil
			cv.vec.Errors = nil
			c.vecs = append(c.vecs, cv)
		}
		c.comps = append(c.comps, cc)
	}
	return c
}

// StampInto overwrites d with the compiled image, timestamping with
// clock and writing future log lines to out. It reuses d's component
// histories (or parked spares) with their vector buffers, and its
// sensor/error slabs; stamped vectors' Sensors/Errors alias the
// daemon-owned slabs (capacity-clamped, so a consumer appending to a
// queried vector reallocates instead of corrupting a neighbour). Listeners and trigger callbacks are
// dropped, exactly as Clone drops them — the caller re-subscribes.
//
// The caller must own d exclusively: StampInto is the arena path, not
// a concurrent mutation of a live daemon.
func (c *Compiled) StampInto(d *Daemon, clock *telemetry.Clock, out io.Writer) {
	d.cfg = c.cfg
	d.clock = clock
	d.out = out
	d.recorded = c.recorded
	d.crashes = c.crashes
	d.writeErr = c.writeErr
	// Truncate rather than nil: an empty slice means "no callbacks"
	// exactly like nil does, and keeps the storage a following
	// RewireStressTrigger refills without allocating.
	d.listeners = d.listeners[:0]
	d.onTrigger = d.onTrigger[:0]

	d.sensorSlab = append(d.sensorSlab[:0], c.sensors...)
	d.errorSlab = append(d.errorSlab[:0], c.errs...)

	if d.byComp == nil {
		d.byComp = make(map[string]*compHistory, len(c.comps))
	} else {
		// Sweep histories the template doesn't know (cross-template
		// arena reuse) onto the spare list, buffers and all, for the
		// template's own components to take over below; same-template
		// stamps find every key present.
		for name, h := range d.byComp {
			if !c.hasComp(name) {
				delete(d.byComp, name)
				d.spare = append(d.spare, h)
			}
		}
	}
	for _, cc := range c.comps {
		h := d.history(cc.name)
		h.reset()
		h.winStart = cc.winStart
		h.winErrs = cc.winErrs
		h.lastTime = cc.lastTime
		h.dirty = cc.dirty
		for _, cv := range c.vecs[cc.vecLo:cc.vecHi] {
			v := cv.vec
			v.Sensors = d.sensorSlab[cv.sensLo:cv.sensHi:cv.sensHi]
			v.Errors = d.errorSlab[cv.errLo:cv.errHi:cv.errHi]
			h.buf = append(h.buf, v)
		}
	}
}

func (c *Compiled) hasComp(name string) bool {
	for _, cc := range c.comps {
		if cc.name == name {
			return true
		}
	}
	return false
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
