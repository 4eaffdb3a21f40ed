package healthlog

import (
	"bytes"
	"testing"
	"time"

	"uniserver/internal/telemetry"
)

func BenchmarkRecord(b *testing.B) {
	clock := telemetry.NewClock(time.Unix(0, 0))
	d := New(DefaultConfig(), clock, nil)
	v := vec("core0", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(time.Second)
		d.Record(v)
	}
}

func BenchmarkRecordWithLogfile(b *testing.B) {
	clock := telemetry.NewClock(time.Unix(0, 0))
	var buf bytes.Buffer
	d := New(DefaultConfig(), clock, &buf)
	v := vec("core0", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(time.Second)
		d.Record(v)
	}
}

func BenchmarkReadLog(b *testing.B) {
	clock := telemetry.NewClock(time.Unix(0, 0))
	var buf bytes.Buffer
	d := New(DefaultConfig(), clock, &buf)
	for i := 0; i < 1000; i++ {
		clock.Advance(time.Second)
		d.Record(vec("core0", i%3))
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadLog(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStampInto times one node's health path on an arena daemon:
// stamping a two-component image and recording 30 runtime windows
// after it. A characterization records 33 window entries per
// component, hours before its snapshot, so the "expired" image is the
// two empty windows Compile leaves of them; the "live" image holds
// all 33 entries of each, as a snapshot taken right after them would.
func BenchmarkStampInto(b *testing.B) {
	for _, bc := range []struct {
		name string
		age  time.Duration
	}{{"expired", 2 * time.Hour}, {"live", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			src, clock := newTestDaemon(nil)
			for i := 0; i < 33; i++ {
				clock.Advance(time.Minute)
				for _, c := range []string{"core0", "core1"} {
					src.Record(vec(c, i%3))
				}
			}
			clock.Advance(bc.age)
			img := src.Compile()
			start := clock.Now()
			var d Daemon
			v := vec("core0", 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				img.StampInto(&d, src.cfg, clock, nil)
				for w := 0; w < 30; w++ {
					v.Time = start.Add(time.Duration(w+1) * time.Minute)
					d.Record(v)
				}
			}
		})
	}
}
