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
// stamping a two-component image of 33 vectors each, as a
// characterization leaves, and recording 30 runtime windows after it.
func BenchmarkStampInto(b *testing.B) {
	src, clock := newTestDaemon(nil)
	for i := 0; i < 33; i++ {
		clock.Advance(time.Minute)
		for _, c := range []string{"core0", "core1"} {
			v := vec(c, i%3)
			v.Sensors = []telemetry.Reading{
				{Kind: telemetry.SensorVoltage, Value: 800},
				{Kind: telemetry.SensorPower, Value: 7.5},
				{Kind: telemetry.SensorTemperature, Value: float64(40 + i%20)},
			}
			src.Record(v)
		}
	}
	img := src.Compile()
	start := clock.Now()
	var d Daemon
	v := vec("core0", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.StampInto(&d, clock, nil)
		for w := 0; w < 30; w++ {
			v.Time = start.Add(time.Duration(w+1) * time.Minute)
			d.Record(v)
		}
	}
}
