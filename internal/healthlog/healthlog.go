// Package healthlog implements the HealthLog monitor of Section 3.C:
// the runtime daemon that records every hardware event — errors
// (correctable or uncorrectable), system configuration values, sensor
// readings and performance counters — as information vectors in a
// system logfile.
//
// Per the paper, the daemon provides two service types:
//
//   - Event-driven services: a component's correctable-error count in
//     a sliding window above a configurable threshold raises a
//     stress-test trigger ("if the number of errors rises above a
//     certain threshold a new stress-test cycle may be triggered").
//     The daemon keeps only what that count needs: each component's
//     (time, correctable count) entries inside the window.
//   - On-demand services: the logfile. ReadLog parses it back and
//     Summarize aggregates it, for offline training and post-mortems
//     (cmd/healthlogcat).
//
// A daemon belongs to one ecosystem, which one goroutine runs at a
// time; it takes no locks.
package healthlog

import (
	"fmt"
	"io"
	"time"

	"uniserver/internal/telemetry"
)

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
	// RetainVectors bounds the records per component the threshold
	// counts: the last RetainVectors, of those inside the window.
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

// Daemon is the HealthLog monitor. It has one owner: it is not safe
// for concurrent use.
type Daemon struct {
	cfg   Config
	clock *telemetry.Clock
	out   io.Writer // JSON-lines system logfile; may be nil

	// comps holds one trigger window per component, in order of first
	// record. A node's components are its cores, a handful, so Record
	// finds its window by a scan, cheaper than hashing the name. The
	// windows past len(comps) are parked by a stamp, rings and all, for
	// the next components to reuse: arenas alternating between
	// archetypes of different part models rename every component on
	// every stamp.
	comps     []*window
	onTrigger []func(TriggerReason)
	recorded  uint64
	crashes   uint64
	writeErr  error
}

// Entry is one record in a component's trigger window: its time and
// its correctable-error count.
type Entry struct {
	Time  time.Time
	Count int
}

// window is one component's trigger window: a FIFO ring of the
// entries of its records inside the sliding window, oldest first, at
// most RetainVectors of them, and the running sum of their counts.
// Record times are nondecreasing per component, so both the last
// RetainVectors records and the records inside the window are
// suffixes of the component's record sequence; the ring holds the
// shorter one, which is the set the threshold counts.
type window struct {
	name    string
	ring    []Entry
	head, n int
	sum     int
}

// at returns the i-th entry, oldest first.
func (w *window) at(i int) Entry {
	if i += w.head; i >= len(w.ring) {
		i -= len(w.ring)
	}
	return w.ring[i]
}

// last returns the newest entry's time, zero for an empty window.
func (w *window) last() time.Time {
	if w.n == 0 {
		return time.Time{}
	}
	return w.at(w.n - 1).Time
}

// push appends e, moving the entries into a ring twice as long when
// the ring is full: O(1) amortized, and allocation-free once the ring
// has grown to the window's size.
func (w *window) push(e Entry) {
	if w.n == len(w.ring) {
		ring := make([]Entry, max(2*w.n, 16))
		for i := range w.n {
			ring[i] = w.at(i)
		}
		w.ring, w.head = ring, 0
	}
	i := w.head + w.n
	if i >= len(w.ring) {
		i -= len(w.ring)
	}
	w.ring[i] = e
	w.n++
	w.sum += e.Count
}

// pop drops the oldest entry.
func (w *window) pop() {
	w.sum -= w.ring[w.head].Count
	if w.head++; w.head == len(w.ring) {
		w.head = 0
	}
	w.n--
}

// reset empties the window, keeping its ring.
func (w *window) reset() { w.head, w.n, w.sum = 0, 0, 0 }

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
	return &Daemon{cfg: cfg, clock: clock, out: out}
}

// OnStressTrigger registers a callback invoked when a component's
// correctable-error rate crosses the configured threshold. The
// StressLog daemon subscribes here.
func (d *Daemon) OnStressTrigger(f func(TriggerReason)) {
	d.onTrigger = append(d.onTrigger, f)
}

// Record ingests one information vector: stamps it with the daemon
// clock if unstamped, writes it to the logfile, and evaluates the
// error threshold over its component's window. The log line is
// written before Record returns. A vector dated before its
// component's last record panics: the daemon clock only advances, and
// the window is exact only over nondecreasing times.
func (d *Daemon) Record(v telemetry.InfoVector) {
	if v.Time.IsZero() {
		v.Time = d.clock.Now()
	}

	w := d.window(v.Component)
	if last := w.last(); v.Time.Before(last) {
		panic(fmt.Sprintf("healthlog: %s record at %s precedes its last at %s",
			v.Component, v.Time.Format(time.RFC3339Nano), last.Format(time.RFC3339Nano)))
	}
	d.recorded++
	if v.HasCrash() {
		d.crashes++
	}
	if w.n == d.cfg.RetainVectors {
		w.pop()
	}
	w.push(Entry{Time: v.Time, Count: v.CorrectableCount()})
	for cutoff := v.Time.Add(-d.cfg.Window); w.n > 1 && !w.at(0).Time.After(cutoff); {
		w.pop()
	}

	if d.out != nil && d.writeErr == nil {
		if line, err := v.MarshalLine(); err == nil {
			if _, err := d.out.Write(line); err != nil {
				d.writeErr = fmt.Errorf("healthlog: logfile write: %w", err)
			}
		}
	}

	if w.sum > d.cfg.ErrorThreshold {
		reason := TriggerReason{
			Component:  v.Component,
			WindowErrs: w.sum,
			Threshold:  d.cfg.ErrorThreshold,
			At:         v.Time,
		}
		for _, f := range d.onTrigger {
			f(reason)
		}
	}
}

// window returns the component's trigger window, creating it — from
// the windows parked past len(d.comps) when there is one — on first
// use.
func (d *Daemon) window(name string) *window {
	for _, w := range d.comps {
		if w.name == name {
			return w
		}
	}
	n := len(d.comps)
	if n == cap(d.comps) || d.comps[:n+1][n] == nil {
		d.comps = append(d.comps, &window{})
	} else {
		d.comps = d.comps[:n+1]
	}
	w := d.comps[n]
	w.name = name
	w.reset()
	return w
}

// Stats summarizes the daemon's activity.
type Stats struct {
	Recorded uint64
	Crashes  uint64
}

// Stats returns activity counters.
func (d *Daemon) Stats() Stats {
	return Stats{Recorded: d.recorded, Crashes: d.crashes}
}

// Err returns the first logfile write error, if any.
func (d *Daemon) Err() error {
	return d.writeErr
}
