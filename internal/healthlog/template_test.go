package healthlog

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/telemetry"
)

// TestRetentionCompactionMatchesScan drives one component far past its
// retention bound with an in-order stream — equal timestamps, gaps
// shorter than the window, exactly as long and longer — and checks after
// every record that the trigger decision equals a reference that keeps
// the last RetainVectors records in a fresh slice and counts window
// errors by full scan, and that the daemon's window holds exactly the
// reference records inside the window. A second daemon records the
// same stream but is re-stamped from its own image every few records,
// at gaps below and past the retention bound: its trigger decisions
// and next image must equal the first daemon's.
func TestRetentionCompactionMatchesScan(t *testing.T) {
	const retain = 7
	clock := telemetry.NewClock(time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := Config{ErrorThreshold: 6, Window: 25 * time.Minute, RetainVectors: retain}
	d, s := New(cfg, clock, nil), New(cfg, clock, nil)
	fired, sFired := 0, 0
	d.OnStressTrigger(func(TriggerReason) { fired++ })
	countS := func(TriggerReason) { sFired++ }
	s.OnStressTrigger(countS)
	gaps := []int{1, 3, 8, 2, 12, 5}
	steps := []time.Duration{0, time.Minute, 0, 3 * time.Minute, 7 * time.Minute, 0, 0,
		2 * time.Minute, 40 * time.Minute, time.Minute, cfg.Window, 11 * time.Minute}
	nextStamp := 0

	var ref []telemetry.InfoVector
	for i := 0; i < 500; i++ {
		if i == nextStamp {
			s.Compile().StampInto(s, cfg, clock, nil)
			s.RewireStressTrigger(countS)
			nextStamp += gaps[i%len(gaps)]
		}
		clock.Advance(steps[i%len(steps)])
		v := vec("core0", i%4)
		d.Record(v)
		s.Record(v)
		v.Time = clock.Now()
		ref = append(ref, v)
		if len(ref) > retain {
			ref = append([]telemetry.InfoVector(nil), ref[len(ref)-retain:]...)
		}

		want := 0
		var inWindow []Entry
		cutoff := v.Time.Add(-cfg.Window)
		for _, w := range ref {
			if w.Time.After(cutoff) && !w.Time.After(v.Time) {
				want += w.CorrectableCount()
				inWindow = append(inWindow, Entry{Time: w.Time, Count: w.CorrectableCount()})
			}
		}
		wantFired := 0
		if want > cfg.ErrorThreshold {
			wantFired = 1
		}
		if fired != wantFired || sFired != wantFired {
			t.Fatalf("record %d: trigger fired %d times, %d on the re-stamped daemon, reference scan says %d (window errors %d)",
				i, fired, sFired, wantFired, want)
		}
		fired, sFired = 0, 0
		img := d.Compile()
		if got := img.Comps[0].Entries; !reflect.DeepEqual(got, inWindow) {
			t.Fatalf("record %d: window holds %v, want the reference's in-window records %v", i, got, inWindow)
		}
		if got := s.Compile(); !reflect.DeepEqual(got, img) {
			t.Fatalf("record %d: re-stamped daemon's image differs:\n%+v\nwant\n%+v", i, got, img)
		}
	}
	for _, dd := range []*Daemon{d, s} {
		if w := dd.window("core0"); len(w.ring) > max(16, 2*retain) {
			t.Fatalf("window ring grew to %d for a %d-record window", len(w.ring), retain)
		}
	}
}

// TestStampRecordCycleAllocationFree alternates two compiled images
// with different component names on one arena daemon, recording a
// burst after each stamp, as fleet workers alternating between
// archetypes of different part models do. Once warm, the cycle must
// not allocate: swept windows are parked and reused, and each window
// records into its own ring.
func TestStampRecordCycleAllocationFree(t *testing.T) {
	compiled := func(comps ...string) *Compiled {
		d, clock := newTestDaemon(nil)
		for i := 0; i < 30; i++ {
			clock.Advance(time.Minute)
			for _, c := range comps {
				d.Record(vec(c, i%2))
			}
		}
		return d.Compile()
	}
	a := compiled("i5/core0", "i5/core1")
	b := compiled("i7/core0", "i7/core1", "i7/core2")
	d, clock := newTestDaemon(nil)
	clock.Advance(time.Hour) // past every image entry
	bursts := []telemetry.InfoVector{vec("i5/core0", 1), vec("i7/core2", 0), vec("i7/core0", 2)}
	cycle := func() {
		for _, c := range []*Compiled{a, b} {
			c.StampInto(d, d.cfg, clock, nil)
			for w := 0; w < 40; w++ {
				for _, v := range bursts {
					d.Record(v)
				}
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm stamp+record cycle allocates %.0f times, want 0", allocs)
	}

	// The stamp still reproduces the image exactly.
	b.StampInto(d, d.cfg, clock, nil)
	if got := d.Compile(); !reflect.DeepEqual(got, b) {
		t.Fatalf("reused arena stamp compiles to\n%+v\nwant the image\n%+v", got, b)
	}
}

// TestCompiledValidate: Compile's own output validates and stamps into
// a zero daemon, and every malformed image a decoder could be handed
// is refused, as is an image with more entries than the stamp's
// configuration retains.
func TestCompiledValidate(t *testing.T) {
	image := func() *Compiled {
		d, clock := newTestDaemon(nil)
		for i := 0; i < 6; i++ {
			clock.Advance(time.Minute)
			for _, c := range []string{"core0", "core1"} {
				d.Record(vec(c, i%3))
			}
		}
		return d.Compile()
	}
	d, clock := newTestDaemon(nil)
	cfg := d.cfg
	c := image()
	if err := c.Validate(cfg); err != nil {
		t.Fatalf("compiled image refused: %v", err)
	}
	var zero Daemon
	c.StampInto(&zero, cfg, clock, nil)
	if got := zero.Compile(); !reflect.DeepEqual(got, c) {
		t.Fatalf("zero daemon stamp compiles to %+v", got)
	}
	breaks := map[string]func(c *Compiled, cfg *Config){
		"unsorted names": func(c *Compiled, _ *Config) { c.Comps[0], c.Comps[1] = c.Comps[1], c.Comps[0] },
		"duplicate name": func(c *Compiled, _ *Config) { c.Comps[1].Name = c.Comps[0].Name },
		"decreasing time": func(c *Compiled, _ *Config) {
			c.Comps[1].Entries[3].Time = c.Comps[1].Entries[2].Time.Add(-time.Second)
		},
		"negative count": func(c *Compiled, _ *Config) { c.Comps[0].Entries[0].Count = -1 },
		"over retention": func(c *Compiled, cfg *Config) { cfg.RetainVectors = len(c.Comps[0].Entries) - 1 },
	}
	for name, brk := range breaks {
		c, cfg := image(), cfg
		brk(c, &cfg)
		if err := c.Validate(cfg); err == nil {
			t.Errorf("%s: broken image accepted", name)
		}
	}
}

// untrimmedImage is Compile without its expiry trim: every entry the
// daemon's windows hold, expired or not — the image Compile wrote
// before it kept only live entries.
func untrimmedImage(d *Daemon) *Compiled {
	c := &Compiled{Recorded: d.recorded, Crashes: d.crashes}
	for _, w := range d.comps {
		cc := CompiledComp{Name: w.name}
		for i := range w.n {
			cc.Entries = append(cc.Entries, w.at(i))
		}
		c.Comps = append(c.Comps, cc)
	}
	slices.SortFunc(c.Comps, func(a, b CompiledComp) int { return strings.Compare(a.Name, b.Name) })
	return c
}

// liveEntries is each component's window entries dated after now
// minus the window, the entries any later record can still count;
// components with none are left out.
func liveEntries(d *Daemon, now time.Time) map[string][]Entry {
	live := map[string][]Entry{}
	for _, w := range d.comps {
		for i := range w.n {
			if e := w.at(i); e.Time.After(now.Add(-d.cfg.Window)) {
				live[w.name] = append(live[w.name], e)
			}
		}
	}
	return live
}

// TestTrimmedImageMatchesUntrimmed is the property behind Compile's
// live-only image: over generated record sequences — several
// components, a retention bound small enough to pop, steps of zero,
// under and past the window — a daemon stamped from the trimmed image
// and one stamped from the untrimmed reference, both at a gap below or
// past the window after the snapshot, hold the same live entries from
// the stamp on, and fire identical triggers, report identical Stats
// and compile to identical images on every record.
func TestTrimmedImageMatchesUntrimmed(t *testing.T) {
	comps := []string{"core0", "core1", "core2", "dimm0"}
	// The generator must reach the cases the trim is about: images
	// that drop expired entries, retention pops and firing triggers.
	dropped, popped, fired := 0, 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		src := rng.New(seed)
		cfg := Config{
			ErrorThreshold: 1 + src.Intn(6),
			Window:         time.Duration(5+src.Intn(40)) * time.Minute,
			RetainVectors:  1 + src.Intn(6),
		}
		step := func() time.Duration {
			switch src.Intn(4) {
			case 0:
				return 0
			case 1:
				return cfg.Window + time.Duration(src.Intn(90))*time.Minute
			default:
				return time.Duration(src.Intn(int(cfg.Window/time.Second))) * time.Second
			}
		}
		record := func(ds ...*Daemon) {
			v := vec(comps[src.Intn(1+src.Intn(len(comps)))], src.Intn(4))
			if src.Intn(15) == 0 {
				v.Errors = append(v.Errors, telemetry.ErrorEvent{Kind: telemetry.ErrCrash, Component: v.Component})
			}
			for _, d := range ds {
				d.Record(v)
			}
		}

		clock := telemetry.NewClock(time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC))
		source := New(cfg, clock, nil)
		var trimmed, full Daemon
		for round := 0; round < 8; round++ {
			for i := src.Intn(30); i > 0; i-- {
				clock.Advance(step())
				record(source)
			}
			img, ref := source.Compile(), untrimmedImage(source)
			if err := img.Validate(cfg); err != nil {
				t.Fatalf("seed %d round %d: trimmed image refused: %v", seed, round, err)
			}
			for i, cc := range ref.Comps {
				if len(img.Comps[i].Entries) < len(cc.Entries) {
					dropped++
				}
				if len(cc.Entries) == cfg.RetainVectors {
					popped++
				}
			}
			stamped := telemetry.NewClock(clock.Now())
			img.StampInto(&trimmed, cfg, stamped, nil)
			ref.StampInto(&full, cfg, stamped, nil)
			var gotFired, wantFired []TriggerReason
			trimmed.RewireStressTrigger(func(r TriggerReason) { gotFired = append(gotFired, r) })
			full.RewireStressTrigger(func(r TriggerReason) { wantFired = append(wantFired, r) })
			if got, want := liveEntries(&trimmed, stamped.Now()), liveEntries(&full, stamped.Now()); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: trimmed stamp holds live entries %v, untrimmed %v", seed, round, got, want)
			}

			gap := time.Duration(src.Intn(int(cfg.Window/time.Second))) * time.Second
			if src.Intn(2) == 0 {
				gap += cfg.Window
			}
			stamped.Advance(gap)
			for i := 1 + src.Intn(30); i > 0; i-- {
				record(&trimmed, &full)
				if !slices.Equal(gotFired, wantFired) {
					t.Fatalf("seed %d round %d: trimmed image fired %v, untrimmed %v", seed, round, gotFired, wantFired)
				}
				if trimmed.Stats() != full.Stats() {
					t.Fatalf("seed %d round %d: stats %+v from the trimmed image, %+v from the untrimmed", seed, round, trimmed.Stats(), full.Stats())
				}
				if got, want := liveEntries(&trimmed, stamped.Now()), liveEntries(&full, stamped.Now()); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d round %d: trimmed stamp holds live entries %v, untrimmed %v", seed, round, got, want)
				}
				if got, want := trimmed.Compile(), full.Compile(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d round %d: trimmed stamp compiles to\n%+v\nwant\n%+v", seed, round, got, want)
				}
				stamped.Advance(step())
			}
			fired += len(wantFired)
		}
	}
	if dropped == 0 || popped == 0 || fired == 0 {
		t.Fatalf("generator too tame: %d trimmed windows, %d full ones, %d triggers", dropped, popped, fired)
	}
	t.Logf("%d trimmed windows, %d full ones, %d triggers", dropped, popped, fired)
}
