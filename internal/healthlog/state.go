package healthlog

import (
	"io"
	"sort"
	"time"

	"uniserver/internal/telemetry"
)

// ComponentState is the wire form of one component's retained history
// and rolling-window bookkeeping — the persistence surface snapshot
// serialization flattens the daemon's private compHistory into.
type ComponentState struct {
	Component string
	Vecs      []telemetry.InfoVector
	WinStart  int
	WinErrs   int
	LastTime  time.Time
	Dirty     bool
}

// DaemonState is the daemon's full serializable state. Listeners and
// stress-trigger callbacks are deliberately absent: they are closures
// over sibling daemons, and the restorer re-subscribes its own, just
// as Clone's consumers do.
type DaemonState struct {
	Config     Config
	Components []ComponentState // sorted by component name
	Recorded   uint64
	Crashes    uint64
}

// ExportState captures the daemon's recorded state for serialization.
// Components are emitted in sorted name order so the encoding of a
// given daemon state is byte-stable.
func (d *Daemon) ExportState() DaemonState {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DaemonState{
		Config:   d.cfg,
		Recorded: d.recorded,
		Crashes:  d.crashes,
	}
	names := make([]string, 0, len(d.byComp))
	for name := range d.byComp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := d.byComp[name]
		vecs := h.vecs()
		cs := ComponentState{
			Component: name,
			Vecs:      make([]telemetry.InfoVector, len(vecs)),
			WinStart:  h.winStart,
			WinErrs:   h.winErrs,
			LastTime:  h.lastTime,
			Dirty:     h.dirty,
		}
		for i, v := range vecs {
			v.Sensors = append([]telemetry.Reading(nil), v.Sensors...)
			v.Errors = append([]telemetry.ErrorEvent(nil), v.Errors...)
			cs.Vecs[i] = v
		}
		st.Components = append(st.Components, cs)
	}
	return st
}

// NewFromState reassembles a daemon from ExportState's capture,
// timestamping with clock and writing future log lines to out (nil
// discards). The caller re-hooks stress triggers and listeners, as
// after Clone.
func NewFromState(st DaemonState, clock *telemetry.Clock, out io.Writer) *Daemon {
	d := New(st.Config, clock, out)
	d.recorded = st.Recorded
	d.crashes = st.Crashes
	for _, cs := range st.Components {
		d.byComp[cs.Component] = &compHistory{
			buf:      append([]telemetry.InfoVector(nil), cs.Vecs...),
			winStart: cs.WinStart,
			winErrs:  cs.WinErrs,
			lastTime: cs.LastTime,
			dirty:    cs.Dirty,
		}
	}
	return d
}
