package healthlog

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"uniserver/internal/telemetry"
	"uniserver/internal/vfr"
)

func newTestDaemon(out *bytes.Buffer) (*Daemon, *telemetry.Clock) {
	clock := telemetry.NewClock(time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC))
	var w *bytes.Buffer
	if out != nil {
		w = out
	}
	cfg := Config{ErrorThreshold: 5, Window: time.Hour, RetainVectors: 100}
	if w == nil {
		return New(cfg, clock, nil), clock
	}
	return New(cfg, clock, w), clock
}

func vec(component string, correctable int) telemetry.InfoVector {
	v := telemetry.InfoVector{
		Component: component,
		Point:     vfr.Point{VoltageMV: 800, FreqMHz: 2600},
	}
	if correctable > 0 {
		v.Errors = []telemetry.ErrorEvent{{Kind: telemetry.ErrCorrectable, Component: component, Count: correctable}}
	}
	return v
}

func TestRecordStampsAndPersists(t *testing.T) {
	var buf bytes.Buffer
	d, clock := newTestDaemon(&buf)
	clock.Advance(time.Minute)
	d.Record(vec("core0", 1))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("log has %d lines", len(lines))
	}
	got, err := telemetry.UnmarshalLine([]byte(lines[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(clock.Now()) {
		t.Fatalf("vector not stamped with clock time: %v vs %v", got.Time, clock.Now())
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitTimestampPreserved(t *testing.T) {
	var buf bytes.Buffer
	d, _ := newTestDaemon(&buf)
	want := time.Date(2017, 7, 1, 3, 0, 0, 0, time.UTC)
	v := vec("core0", 0)
	v.Time = want
	d.Record(v)
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Time.Equal(want) {
		t.Fatalf("timestamp overwritten: %v", got)
	}
}

// TestRecordOutOfOrderPanics: a vector dated before its component's
// last record panics and leaves the daemon usable; other components
// keep their own order.
func TestRecordOutOfOrderPanics(t *testing.T) {
	var buf bytes.Buffer
	d, clock := newTestDaemon(&buf)
	clock.Advance(time.Hour)
	d.Record(vec("core0", 1))
	late := vec("core0", 1)
	late.Time = clock.Now().Add(-time.Second)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "precedes its last") {
				t.Fatalf("out-of-order record recovered %v, want a panic", r)
			}
		}()
		d.Record(late)
	}()
	late.Component = "core1"
	d.Record(late) // an earlier time on another component is in order
	d.Record(vec("core0", 1))
	if s := d.Stats(); s.Recorded != 3 {
		t.Fatalf("recorded %d vectors, want 3 (the refused one not counted)", s.Recorded)
	}
	if n := strings.Count(buf.String(), "\n"); n != 3 {
		t.Fatalf("log has %d lines, want 3", n)
	}
}

func TestThresholdTrigger(t *testing.T) {
	d, clock := newTestDaemon(nil)
	var triggers []TriggerReason
	d.OnStressTrigger(func(r TriggerReason) { triggers = append(triggers, r) })

	// 5 errors = threshold, not above: no trigger.
	d.Record(vec("core0", 5))
	if len(triggers) != 0 {
		t.Fatalf("trigger fired at threshold: %v", triggers)
	}
	clock.Advance(time.Minute)
	d.Record(vec("core0", 1))
	if len(triggers) != 1 {
		t.Fatalf("trigger count = %d, want 1", len(triggers))
	}
	r := triggers[0]
	if r.Component != "core0" || r.WindowErrs != 6 || r.Threshold != 5 {
		t.Fatalf("trigger = %+v", r)
	}
	if !strings.Contains(r.String(), "core0") {
		t.Fatal("trigger string missing component")
	}
}

func TestThresholdWindowExpires(t *testing.T) {
	d, clock := newTestDaemon(nil)
	fired := 0
	d.OnStressTrigger(func(TriggerReason) { fired++ })
	d.Record(vec("core0", 5))
	// Push the old errors out of the 1h window.
	clock.Advance(2 * time.Hour)
	d.Record(vec("core0", 1))
	if fired != 0 {
		t.Fatalf("stale errors triggered stress test")
	}
}

func TestThresholdPerComponent(t *testing.T) {
	d, clock := newTestDaemon(nil)
	fired := 0
	d.OnStressTrigger(func(TriggerReason) { fired++ })
	d.Record(vec("core0", 4))
	clock.Advance(time.Minute)
	d.Record(vec("core1", 4))
	if fired != 0 {
		t.Fatal("errors on different components must not sum")
	}
}

// TestRetentionBound: the threshold counts at most the last
// RetainVectors records of a component, however many fall inside the
// window.
func TestRetentionBound(t *testing.T) {
	clock := telemetry.NewClock(time.Unix(0, 0))
	d := New(Config{ErrorThreshold: 5, Window: time.Hour, RetainVectors: 10}, clock, nil)
	var last TriggerReason
	d.OnStressTrigger(func(r TriggerReason) { last = r })
	for i := 0; i < 50; i++ {
		clock.Advance(time.Second)
		d.Record(vec("core0", 1))
	}
	if last.WindowErrs != 10 {
		t.Fatalf("window counted %d errors, want the 10 retained", last.WindowErrs)
	}
}

func TestStats(t *testing.T) {
	d, _ := newTestDaemon(nil)
	d.Record(vec("core0", 1))
	crash := vec("core0", 0)
	crash.Errors = []telemetry.ErrorEvent{{Kind: telemetry.ErrCrash, Component: "core0", Count: 1}}
	d.Record(crash)
	s := d.Stats()
	if s.Recorded != 2 || s.Crashes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteErrorSurfaced(t *testing.T) {
	clock := telemetry.NewClock(time.Unix(0, 0))
	d := New(DefaultConfig(), clock, failingWriter{})
	d.Record(vec("core0", 0))
	if d.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	// The daemon keeps recording after a write error.
	d.Record(vec("core0", 0))
	if d.Stats().Recorded != 2 {
		t.Fatal("daemon stopped recording after write error")
	}
}

func TestDefaultsApplied(t *testing.T) {
	clock := telemetry.NewClock(time.Unix(0, 0))
	d := New(Config{}, clock, nil)
	if d.cfg.ErrorThreshold != DefaultConfig().ErrorThreshold ||
		d.cfg.Window != DefaultConfig().Window ||
		d.cfg.RetainVectors != DefaultConfig().RetainVectors {
		t.Fatalf("defaults not applied: %+v", d.cfg)
	}
}

func TestLogfileIsValidJSONLines(t *testing.T) {
	var buf bytes.Buffer
	d, clock := newTestDaemon(&buf)
	for i := 0; i < 20; i++ {
		clock.Advance(time.Second)
		d.Record(vec("core0", i%3))
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		if _, err := telemetry.UnmarshalLine(sc.Bytes()); err != nil {
			t.Fatalf("line %d invalid: %v", n, err)
		}
		n++
	}
	if n != 20 {
		t.Fatalf("log has %d lines, want 20", n)
	}
}
