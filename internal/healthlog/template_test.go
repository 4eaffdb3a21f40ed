package healthlog

import (
	"reflect"
	"testing"
	"time"

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
			s.Compile().StampInto(s, clock, nil)
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
			c.StampInto(d, clock, nil)
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
	b.StampInto(d, clock, nil)
	if got := d.Compile(); !reflect.DeepEqual(got, b) {
		t.Fatalf("reused arena stamp compiles to\n%+v\nwant the image\n%+v", got, b)
	}
}

// TestCompiledValidate: Compile's own output validates and stamps into
// a zero daemon, and every malformed image a decoder could be handed
// is refused.
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
	c := image()
	if err := c.Validate(); err != nil {
		t.Fatalf("compiled image refused: %v", err)
	}
	var zero Daemon
	_, clock := newTestDaemon(nil)
	c.StampInto(&zero, clock, nil)
	if got := zero.Compile(); !reflect.DeepEqual(got, c) {
		t.Fatalf("zero daemon stamp compiles to %+v", got)
	}
	breaks := map[string]func(c *Compiled){
		"unsorted names":  func(c *Compiled) { c.Comps[0], c.Comps[1] = c.Comps[1], c.Comps[0] },
		"duplicate name":  func(c *Compiled) { c.Comps[1].Name = c.Comps[0].Name },
		"decreasing time": func(c *Compiled) { c.Comps[1].Entries[3].Time = c.Comps[1].Entries[2].Time.Add(-time.Second) },
		"negative count":  func(c *Compiled) { c.Comps[0].Entries[0].Count = -1 },
		"over retention":  func(c *Compiled) { c.Config.RetainVectors = len(c.Comps[0].Entries) - 1 },
		"zero threshold":  func(c *Compiled) { c.Config.ErrorThreshold = 0 },
		"negative window": func(c *Compiled) { c.Config.Window = -time.Minute },
		"zero retention":  func(c *Compiled) { c.Config.RetainVectors = 0 },
	}
	for name, brk := range breaks {
		c := image()
		brk(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: broken image accepted", name)
		}
	}
}
