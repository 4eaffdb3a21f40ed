package healthlog

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"uniserver/internal/telemetry"
)

// Compiled is a daemon's snapshot image: its counters and each
// component's trigger window. Compile builds it once per snapshot and
// StampInto copies it into a daemon, with the configuration its
// caller gives. A Compiled is immutable once built and safe for
// concurrent StampInto calls. Its exported fields are its encoding.
type Compiled struct {
	Recorded uint64
	Crashes  uint64
	Comps    []CompiledComp // sorted by name
}

// CompiledComp is one component's trigger window, oldest entry first.
type CompiledComp struct {
	Name    string
	Entries []Entry
}

// Compile copies the daemon's recorded state into its snapshot image.
// Components are laid out in sorted name order so the image is
// reproducible regardless of map iteration. The image shares no
// storage with d, so d may keep recording. A failed log writer is not
// part of the image: stamped daemons write to their own.
//
// The image keeps only the live entries, those dated after the
// clock's now minus Window; a component whose entries all expired
// keeps its name and a nil window. That is exact for every daemon
// stamped with a clock at or after d's now, which is how a snapshot
// stamps (the clock resets to the snapshot's and only advances):
// every later record is dated at or after that now, so its cutoff
// pops every expired entry after its push, and the retention pop
// before the push takes the oldest entry, an expired one whenever any
// is left. Live entries are therefore all any record can count.
func (d *Daemon) Compile() *Compiled {
	c := &Compiled{Recorded: d.recorded, Crashes: d.crashes}
	cutoff := d.clock.Now().Add(-d.cfg.Window)
	byName := func(a, b *window) int { return strings.Compare(a.name, b.name) }
	for _, w := range slices.SortedFunc(slices.Values(d.comps), byName) {
		cc := CompiledComp{Name: w.name}
		expired := 0
		for expired < w.n && !w.at(expired).Time.After(cutoff) {
			expired++
		}
		if n := w.n - expired; n > 0 {
			cc.Entries = make([]Entry, n)
			for i := range cc.Entries {
				cc.Entries[i] = w.at(expired + i)
			}
		}
		c.Comps = append(c.Comps, cc)
	}
	return c
}

// Validate refuses an image a daemon with configuration cfg could not
// have compiled: component names unsorted or duplicated, or a window
// with more than cfg.RetainVectors entries, a negative count or
// decreasing times. A decoded image that passes stamps a daemon with
// cfg whose windows Record keeps exact.
func (c *Compiled) Validate(cfg Config) error {
	for i, cc := range c.Comps {
		if i > 0 && cc.Name <= c.Comps[i-1].Name {
			return fmt.Errorf("healthlog: component %q follows %q: names unsorted or duplicated", cc.Name, c.Comps[i-1].Name)
		}
		if len(cc.Entries) > cfg.RetainVectors {
			return fmt.Errorf("healthlog: component %q holds %d entries, more than the %d retained",
				cc.Name, len(cc.Entries), cfg.RetainVectors)
		}
		for j, e := range cc.Entries {
			if e.Count < 0 {
				return fmt.Errorf("healthlog: component %q entry %d counts %d errors", cc.Name, j, e.Count)
			}
			if j > 0 && e.Time.Before(cc.Entries[j-1].Time) {
				return fmt.Errorf("healthlog: component %q entry %d precedes entry %d", cc.Name, j, j-1)
			}
		}
	}
	return nil
}

// StampInto overwrites d with the image and the configuration cfg the
// imaged daemon was built with, timestamping with clock and writing
// future log lines to out; a zero Daemon is a valid destination. It
// copies each component's entries into d's own windows, reusing their
// rings, so a warm stamp does not allocate and d shares nothing with
// the image. Trigger callbacks are dropped — they are closures over
// the source's sibling daemons — and the caller re-wires them.
func (c *Compiled) StampInto(d *Daemon, cfg Config, clock *telemetry.Clock, out io.Writer) {
	d.cfg = cfg
	d.clock = clock
	d.out = out
	d.recorded = c.Recorded
	d.crashes = c.Crashes
	d.writeErr = nil
	// Truncate rather than nil: an empty slice means "no callbacks"
	// exactly like nil does, and keeps the storage a following
	// RewireStressTrigger refills without allocating.
	d.onTrigger = d.onTrigger[:0]

	// Park every window for the image's components to take over below,
	// in the image's order, rings and all.
	d.comps = d.comps[:0]
	for _, cc := range c.Comps {
		w := d.window(cc.Name)
		for _, e := range cc.Entries {
			w.push(e)
		}
	}
}

// RewireStressTrigger replaces every stress-trigger callback with f,
// reusing the callback slice's storage: the stamp path's re-wiring.
func (d *Daemon) RewireStressTrigger(f func(TriggerReason)) {
	d.onTrigger = append(d.onTrigger[:0], f)
}
