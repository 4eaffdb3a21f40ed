// Package healthlog implements the HealthLog monitor of Section 3.C:
// the runtime daemon that records every hardware event — errors
// (correctable or uncorrectable), system configuration values, sensor
// readings and performance counters — as information vectors in a
// system logfile, and exposes them to the higher layers.
//
// Per the paper, the daemon provides two service types:
//
//   - Event-driven services: subscribers (the Predictor, the
//     Hypervisor) are notified synchronously whenever a vector is
//     recorded, and a configurable correctable-error-rate threshold
//     raises a stress-test trigger ("if the number of errors rises
//     above a certain threshold a new stress-test cycle may be
//     triggered").
//   - On-demand services: the monitor answers queries from higher
//     layers for specific information (per component, per time range).
package healthlog

import (
	"fmt"
	"io"
	"sync"
	"time"

	"uniserver/internal/telemetry"
)

// Listener receives every recorded vector (event-driven service).
type Listener func(telemetry.InfoVector)

// TriggerReason explains why a stress-test trigger fired.
type TriggerReason struct {
	Component  string
	WindowErrs int
	Threshold  int
	At         time.Time
}

// String implements fmt.Stringer.
func (r TriggerReason) String() string {
	return fmt.Sprintf("component %s: %d correctable errors in window (threshold %d) at %s",
		r.Component, r.WindowErrs, r.Threshold, r.At.Format(time.RFC3339))
}

// Config tunes the daemon.
type Config struct {
	// ErrorThreshold is the number of correctable errors per component
	// per window above which a stress-test cycle is requested.
	ErrorThreshold int
	// Window is the sliding-window length for the threshold.
	Window time.Duration
	// RetainVectors bounds the in-memory history per component
	// (on-demand queries read from this buffer; the full stream also
	// goes to the log writer).
	RetainVectors int
}

// DefaultConfig returns sensible daemon defaults.
func DefaultConfig() Config {
	return Config{
		ErrorThreshold: 10,
		Window:         time.Hour,
		RetainVectors:  4096,
	}
}

// Daemon is the HealthLog monitor. It is safe for concurrent use.
type Daemon struct {
	cfg   Config
	clock *telemetry.Clock
	out   io.Writer // JSON-lines system logfile; may be nil

	mu sync.Mutex
	// byComp holds one history per component. listeners and onTrigger
	// are copy-on-write: Subscribe/OnStressTrigger replace the whole
	// slice, so Record can capture the header under the lock and range
	// it after unlocking without a defensive per-record copy.
	byComp    map[string]*compHistory
	listeners []Listener
	onTrigger []func(TriggerReason)
	recorded  uint64
	crashes   uint64
	writeErr  error

	// spare holds histories a stamp swept out of byComp (their
	// component is absent from the stamped image), kept with their
	// buffers so the next component to appear reuses one instead of
	// allocating: arenas alternating between archetypes of different
	// part models rename every component on every stamp.
	spare []*compHistory
}

// compHistory is one component's retained vectors plus the rolling
// sliding-window error bookkeeping: winStart indexes the first
// retained vector inside the current window and winErrs sums the
// correctable counts of the retained vectors from winStart on. The
// rolling form is valid only while record times are nondecreasing
// (the daemon clock only advances); an out-of-order record marks the
// history dirty and the threshold check falls back to the full scan,
// which is the rolling form's definition.
//
// The retained vectors are base followed by buf[start:]. base is a
// stamped history's share of its snapshot image (Compiled.StampInto),
// read-only and never written; buf is the history's own backing
// array and holds what was recorded since. Retention trims eat into
// base first — dropping it once they pass its end — and then advance
// start instead of reslicing buf away, so push can compact the live
// window back to the front and keep recording into the same storage.
type compHistory struct {
	base     []telemetry.InfoVector
	buf      []telemetry.InfoVector
	start    int
	winStart int
	winErrs  int
	lastTime time.Time
	dirty    bool
}

// len returns the number of retained vectors.
func (h *compHistory) len() int { return len(h.base) + len(h.buf) - h.start }

// at returns the i-th retained vector, oldest first, in place: a
// stamped one is the image's and must not be written.
func (h *compHistory) at(i int) *telemetry.InfoVector {
	if i < len(h.base) {
		return &h.base[i]
	}
	return &h.buf[h.start+i-len(h.base)]
}

// trim drops the n oldest retained vectors.
func (h *compHistory) trim(n int) {
	if k := min(n, len(h.base)); k > 0 {
		if h.base = h.base[k:]; len(h.base) == 0 {
			h.base = nil // release the image once trimming passes it
		}
		n -= k
	}
	h.start += n
}

// reset empties the history, keeping its buffer.
func (h *compHistory) reset() {
	h.base = nil
	h.buf = h.buf[:0]
	h.start = 0
	h.winStart, h.winErrs = 0, 0
	h.lastTime, h.dirty = time.Time{}, false
}

// push appends v to the retained vectors, amortized O(1) and without
// allocating once the buffer has grown to twice the retained window.
// When the buffer is full it either compacts its live part to the
// front — when at least half the buffer is trimmed history, so each
// compaction is paid for by as many pushes as it copies — or moves the
// live part into a buffer twice its length.
func (h *compHistory) push(v telemetry.InfoVector) {
	if len(h.buf) == cap(h.buf) {
		live := h.buf[h.start:]
		if h.start > 0 && h.start >= len(live) {
			n := copy(h.buf, live)
			clear(h.buf[n:]) // drop trimmed vectors' payload references
			h.buf = h.buf[:n]
		} else {
			nb := make([]telemetry.InfoVector, len(live), max(2*len(live), 16))
			copy(nb, live)
			h.buf = nb
		}
		h.start = 0
	}
	h.buf = append(h.buf, v)
}

// New returns a daemon writing JSON lines to out (nil discards) and
// timestamping with the given clock.
func New(cfg Config, clock *telemetry.Clock, out io.Writer) *Daemon {
	if cfg.ErrorThreshold <= 0 {
		cfg.ErrorThreshold = DefaultConfig().ErrorThreshold
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultConfig().Window
	}
	if cfg.RetainVectors <= 0 {
		cfg.RetainVectors = DefaultConfig().RetainVectors
	}
	return &Daemon{
		cfg:    cfg,
		clock:  clock,
		out:    out,
		byComp: make(map[string]*compHistory),
	}
}

// Subscribe registers an event-driven listener. Listeners run
// synchronously on the recording goroutine, in registration order.
func (d *Daemon) Subscribe(l Listener) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Copy-on-write: never extend the slice Record may be ranging.
	d.listeners = append(append([]Listener(nil), d.listeners...), l)
}

// OnStressTrigger registers a callback invoked when a component's
// correctable-error rate crosses the configured threshold. The
// StressLog daemon subscribes here.
func (d *Daemon) OnStressTrigger(f func(TriggerReason)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Copy-on-write, as for Subscribe.
	d.onTrigger = append(append([]func(TriggerReason){}, d.onTrigger...), f)
}

// Record ingests one information vector: stamps it with the daemon
// clock if unstamped, persists it to the logfile, retains it for
// queries, notifies listeners, and evaluates the error threshold.
func (d *Daemon) Record(v telemetry.InfoVector) {
	if v.Time.IsZero() {
		v.Time = d.clock.Now()
	}
	correctable := v.CorrectableCount()

	d.mu.Lock()
	d.recorded++
	if v.HasCrash() {
		d.crashes++
	}
	h := d.history(v.Component)
	if v.Time.Before(h.lastTime) {
		h.dirty = true // rolling window invalid; fall back to scans
	} else {
		h.lastTime = v.Time
	}
	h.push(v)
	if trim := h.len() - d.cfg.RetainVectors; trim > 0 {
		// Vectors falling out of retention also fall out of the
		// threshold window — the scan only ever saw retained history.
		for i := h.winStart; i < trim; i++ {
			h.winErrs -= h.at(i).CorrectableCount()
		}
		h.trim(trim)
		if h.winStart -= trim; h.winStart < 0 {
			h.winStart = 0
		}
	}

	if d.out != nil && d.writeErr == nil {
		if line, err := v.MarshalLine(); err == nil {
			if _, err := d.out.Write(line); err != nil {
				d.writeErr = fmt.Errorf("healthlog: logfile write: %w", err)
			}
		}
	}

	listeners := d.listeners
	var reason *TriggerReason
	if n := h.windowErrors(v.Time, correctable, d.cfg.Window); n > d.cfg.ErrorThreshold {
		reason = &TriggerReason{
			Component:  v.Component,
			WindowErrs: n,
			Threshold:  d.cfg.ErrorThreshold,
			At:         v.Time,
		}
	}
	triggers := d.onTrigger
	d.mu.Unlock()

	for _, l := range listeners {
		l(v)
	}
	if reason != nil {
		for _, f := range triggers {
			f(*reason)
		}
	}
}

// history returns the component's history, creating it — from the
// spare list when one is parked there — on first use. Caller holds
// d.mu.
func (d *Daemon) history(name string) *compHistory {
	h := d.byComp[name]
	if h != nil {
		return h
	}
	if n := len(d.spare); n > 0 {
		h = d.spare[n-1]
		d.spare[n-1] = nil
		d.spare = d.spare[:n-1]
		h.reset()
	} else {
		h = &compHistory{}
	}
	d.byComp[name] = h
	return h
}

// windowErrors returns the component's correctable errors inside the
// sliding window ending at the just-recorded vector, recorded at t
// with correctable errors. On the ordered fast path it advances the
// rolling cursor past expired vectors and adds the new count —
// O(expired) instead of O(retained) per record, with the exact same
// total the full scan produces. Caller holds d.mu.
func (h *compHistory) windowErrors(t time.Time, correctable int, window time.Duration) int {
	cutoff := t.Add(-window)
	n := h.len()
	if h.dirty {
		errs := 0
		for i := range n {
			if w := h.at(i); w.Time.After(cutoff) && !w.Time.After(t) {
				errs += w.CorrectableCount()
			}
		}
		return errs
	}
	for ; h.winStart < n-1; h.winStart++ {
		w := h.at(h.winStart)
		if w.Time.After(cutoff) {
			break
		}
		h.winErrs -= w.CorrectableCount()
	}
	h.winErrs += correctable
	return h.winErrs
}

// Query returns the retained vectors for a component recorded at or
// after `since`, in record order (on-demand service). Vectors stamped
// from a snapshot image share their sensor and error payloads with
// it: the caller must not write into them.
func (d *Daemon) Query(component string, since time.Time) []telemetry.InfoVector {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.byComp[component]
	if h == nil {
		return nil
	}
	var out []telemetry.InfoVector
	for i := range h.len() {
		if v := h.at(i); !v.Time.Before(since) {
			out = append(out, *v)
		}
	}
	return out
}

// Components returns the component names seen so far.
func (d *Daemon) Components() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.byComp))
	for name := range d.byComp {
		out = append(out, name)
	}
	return out
}

// Stats summarizes the daemon's activity.
type Stats struct {
	Recorded uint64
	Crashes  uint64
}

// Stats returns activity counters.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{Recorded: d.recorded, Crashes: d.crashes}
}

// Err returns the first logfile write error, if any.
func (d *Daemon) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeErr
}
