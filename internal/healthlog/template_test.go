package healthlog

import (
	"reflect"
	"testing"
	"time"

	"uniserver/internal/telemetry"
)

// TestRetentionCompactionMatchesScan drives one component far past its
// retention bound, with in-order and out-of-order records, and checks
// after every record that the retained window and the trigger decision
// equal a reference that keeps the last RetainVectors vectors in a
// fresh slice and counts window errors by full scan — so compacting
// the history buffer in place changes neither retention nor the
// rolling window bookkeeping.
func TestRetentionCompactionMatchesScan(t *testing.T) {
	const retain = 7
	clock := telemetry.NewClock(time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := Config{ErrorThreshold: 6, Window: 25 * time.Minute, RetainVectors: retain}
	d := New(cfg, clock, nil)
	fired := 0
	d.OnStressTrigger(func(TriggerReason) { fired++ })

	var ref []telemetry.InfoVector
	for i := 0; i < 500; i++ {
		clock.Advance(time.Duration(1+i%7) * time.Minute)
		v := vec("core0", i%4)
		v.Time = clock.Now()
		if i%97 == 50 {
			v.Time = v.Time.Add(-2 * time.Hour) // out of order: the scan fallback
		}
		d.Record(v)
		ref = append(ref, v)
		if len(ref) > retain {
			ref = append([]telemetry.InfoVector(nil), ref[len(ref)-retain:]...)
		}

		want := 0
		cutoff := v.Time.Add(-cfg.Window)
		for _, w := range ref {
			if w.Time.After(cutoff) && !w.Time.After(v.Time) {
				want += w.CorrectableCount()
			}
		}
		wantFired := 0
		if want > cfg.ErrorThreshold {
			wantFired = 1
		}
		if fired != wantFired {
			t.Fatalf("record %d: trigger fired %d times, reference scan says %d (window errors %d)",
				i, fired, wantFired, want)
		}
		fired = 0
		if got := d.Query("core0", time.Time{}); !reflect.DeepEqual(got, ref) {
			t.Fatalf("record %d: retained %d vectors differing from the last %d recorded", i, len(got), len(ref))
		}
	}
	if h := d.byComp["core0"]; cap(h.buf) > 4*retain {
		t.Fatalf("history buffer grew to %d for a %d-vector window", cap(h.buf), retain)
	}
}

// TestStampRecordCycleAllocationFree alternates two compiled images
// with different component names on one arena daemon, recording a
// burst after each stamp, as fleet workers alternating between
// archetypes of different part models do. Once warm, the cycle must
// not allocate: swept histories are parked and reused, and each
// history records into its own buffer.
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
	fresh := New(Config{}, clock, nil)
	b.StampInto(fresh, clock, nil)
	for _, name := range []string{"i7/core0", "i7/core1", "i7/core2"} {
		if got, want := d.Query(name, time.Time{}), fresh.Query(name, time.Time{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused arena stamp differs from a fresh daemon's", name)
		}
	}
	if got := len(d.Components()); got != 3 {
		t.Fatalf("arena holds %d components after stamping a 3-component image", got)
	}
}

// TestCompiledValidate: Compile's own output validates and stamps into
// a zero daemon, and every broken count a decoded image could carry is
// refused.
func TestCompiledValidate(t *testing.T) {
	image := func() *Compiled {
		d, clock := newTestDaemon(nil)
		for i := 0; i < 6; i++ {
			clock.Advance(time.Minute)
			for _, c := range []string{"core0", "core1"} {
				v := vec(c, i%3)
				v.Sensors = []telemetry.Reading{{Kind: telemetry.SensorTemperature, Value: float64(40 + i)}}
				d.Record(v)
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
	if got := zero.Query("core1", time.Time{}); len(got) != 6 || len(got[5].Sensors) != 1 {
		t.Fatalf("zero daemon stamp holds %d core1 vectors", len(got))
	}
	breaks := map[string]func(c *Compiled){
		"vector overrun":   func(c *Compiled) { c.Comps[1].Vecs++ },
		"vector negative":  func(c *Compiled) { c.Comps[0].Vecs, c.Comps[1].Vecs = -1, 13 },
		"uncovered vector": func(c *Compiled) { c.Vecs = append(c.Vecs, CompiledVec{}) },
		"window cursor":    func(c *Compiled) { c.Comps[0].WinStart = -1 },
		"window overrun":   func(c *Compiled) { c.Comps[0].WinStart = 7 },
		"sensor overrun":   func(c *Compiled) { c.Vecs[len(c.Vecs)-1].Sensors++ },
		"sensor negative":  func(c *Compiled) { c.Vecs[0].Sensors, c.Vecs[1].Sensors = -1, 3 },
		"error overrun":    func(c *Compiled) { c.Vecs[2].Errors += len(c.Errors) },
		"uncovered errors": func(c *Compiled) { c.Errors = append(c.Errors, telemetry.ErrorEvent{}) },
	}
	for name, brk := range breaks {
		c := image()
		brk(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: broken image accepted", name)
		}
	}
}
