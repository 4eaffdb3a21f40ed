package telemetry

import (
	"testing"
	"time"

	"uniserver/internal/vfr"
)

func TestClock(t *testing.T) {
	origin := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	c := NewClock(origin)
	if !c.Now().Equal(origin) {
		t.Fatal("clock origin wrong")
	}
	got := c.Advance(90 * time.Minute)
	if !got.Equal(origin.Add(90 * time.Minute)) {
		t.Fatal("Advance arithmetic wrong")
	}
	if !c.Now().Equal(got) {
		t.Fatal("Now after Advance wrong")
	}
}

func TestClockPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	NewClock(time.Unix(0, 0)).Advance(-time.Second)
}

func TestSensorKindString(t *testing.T) {
	kinds := []SensorKind{SensorVoltage, SensorTemperature, SensorPower, SensorFrequency, SensorRefresh}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate sensor name %q", s)
		}
		seen[s] = true
	}
	if SensorKind(99).String() != "sensor(99)" {
		t.Fatal("unknown sensor fallback wrong")
	}
}

func TestErrorKindString(t *testing.T) {
	if ErrCorrectable.String() != "correctable" || ErrCrash.String() != "crash" {
		t.Fatal("error kind names wrong")
	}
	if ErrorKind(42).String() != "error(42)" {
		t.Fatal("unknown error kind fallback wrong")
	}
}

func sampleVector() InfoVector {
	return InfoVector{
		Time:      time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC),
		Component: "core0",
		Point:     vfr.Point{VoltageMV: 790, FreqMHz: 2600},
		Sensors: []Reading{
			{Kind: SensorVoltage, Value: 790},
			{Kind: SensorTemperature, Value: 61.5},
		},
		Counters: PerfCounters{Instructions: 1e6, Cycles: 5e5},
		Errors: []ErrorEvent{
			{Kind: ErrCorrectable, Component: "core0/L2", Count: 3},
			{Kind: ErrCorrectable, Component: "core0/L1", Count: 2},
		},
	}
}

func TestInfoVectorAccessors(t *testing.T) {
	v := sampleVector()
	if v.CorrectableCount() != 5 {
		t.Fatalf("CorrectableCount = %d", v.CorrectableCount())
	}
	if v.HasCrash() {
		t.Fatal("no crash expected")
	}
	v.Errors = append(v.Errors, ErrorEvent{Kind: ErrCrash, Component: "core0", Count: 1})
	if !v.HasCrash() {
		t.Fatal("crash not detected")
	}
}

func TestInfoVectorRoundTrip(t *testing.T) {
	v := sampleVector()
	line, err := v.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("log line must end with newline")
	}
	got, err := UnmarshalLine(line[:len(line)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(v.Time) || got.Component != v.Component ||
		got.Point != v.Point || got.Counters != v.Counters ||
		len(got.Sensors) != len(v.Sensors) || len(got.Errors) != len(v.Errors) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", v, got)
	}
}

func TestUnmarshalLineError(t *testing.T) {
	if _, err := UnmarshalLine([]byte("{not json")); err == nil {
		t.Fatal("bad line should error")
	}
}

// TestAdvanceCoarseValidates pins the fast-forward primitive's
// contract: unlike Advance (panic on negative, silent on zero),
// AdvanceCoarse rejects non-positive jumps, fractional-window jumps,
// and any jump attempted while the clock sits mid-window.
func TestAdvanceCoarseValidates(t *testing.T) {
	origin := time.Date(2017, 2, 1, 0, 0, 0, 0, time.UTC)
	c := NewClock(origin)
	if _, err := c.AdvanceCoarse(-time.Hour); err == nil {
		t.Fatal("negative coarse advance accepted")
	}
	if _, err := c.AdvanceCoarse(0); err == nil {
		t.Fatal("zero coarse advance accepted")
	}
	if _, err := c.AdvanceCoarse(90 * time.Second); err == nil {
		t.Fatal("fractional-window coarse advance accepted")
	}
	got, err := c.AdvanceCoarse(48 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if want := origin.Add(48 * time.Hour); !got.Equal(want) {
		t.Fatalf("coarse advance landed at %v, want %v", got, want)
	}

	// Mid-window: a fine advance that leaves the clock off the window
	// boundary makes every subsequent fast-forward illegal until the
	// window completes.
	c.Advance(30 * time.Second)
	if _, err := c.AdvanceCoarse(24 * time.Hour); err == nil {
		t.Fatal("mid-window fast-forward accepted")
	}
	c.Advance(30 * time.Second) // back on the boundary
	if _, err := c.AdvanceCoarse(24 * time.Hour); err != nil {
		t.Fatalf("boundary fast-forward rejected: %v", err)
	}
}
