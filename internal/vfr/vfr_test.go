package vfr

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPointString(t *testing.T) {
	p := Point{VoltageMV: 844, FreqMHz: 2600}
	if got := p.String(); got != "0.844V@2600MHz" {
		t.Fatalf("String = %q", got)
	}
	p.Refresh = 64 * time.Millisecond
	if got := p.String(); !strings.Contains(got, "64ms") {
		t.Fatalf("String with refresh = %q", got)
	}
}

func TestPointValid(t *testing.T) {
	if !(Point{VoltageMV: 800, FreqMHz: 1000}).Valid() {
		t.Error("valid point reported invalid")
	}
	if (Point{VoltageMV: 0, FreqMHz: 1000}).Valid() {
		t.Error("zero voltage reported valid")
	}
	if (Point{VoltageMV: 800, FreqMHz: 0}).Valid() {
		t.Error("zero frequency reported valid")
	}
	if (Point{VoltageMV: 800, FreqMHz: 100, Refresh: -time.Second}).Valid() {
		t.Error("negative refresh reported valid")
	}
}

func TestVoltageOffsetPct(t *testing.T) {
	p := Point{VoltageMV: 760, FreqMHz: 2600}
	got := p.VoltageOffsetPct(844)
	if got > -9.9 || got < -10 {
		t.Fatalf("offset = %v, want ~-9.95", got)
	}
	if (Point{VoltageMV: 844}).VoltageOffsetPct(844) != 0 {
		t.Fatal("offset at nominal should be 0")
	}
}

func TestWithHelpers(t *testing.T) {
	p := Point{VoltageMV: 844, FreqMHz: 2600}
	q := p.WithVoltage(800)
	if q.VoltageMV != 800 || q.FreqMHz != 2600 {
		t.Fatalf("WithVoltage produced %v", q)
	}
	if p.VoltageMV != 844 {
		t.Fatal("With helpers mutated receiver")
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		ModeNominal:         "nominal",
		ModeHighPerformance: "high-performance",
		ModeLowPower:        "low-power",
		Mode(99):            "Mode(99)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestTable1Guardbands(t *testing.T) {
	gs := Table1Guardbands()
	if len(gs) != 3 {
		t.Fatalf("Table 1 has %d rows, want 3", len(gs))
	}
	bySource := map[GuardbandSource]float64{}
	for _, g := range gs {
		bySource[g.Source] = g.Pct
	}
	if bySource[GuardVoltageDroop] != 20 {
		t.Errorf("droop guardband = %v, want 20", bySource[GuardVoltageDroop])
	}
	if bySource[GuardVmin] != 15 {
		t.Errorf("Vmin guardband = %v, want 15", bySource[GuardVmin])
	}
	if bySource[GuardCoreToCore] != 5 {
		t.Errorf("core-to-core guardband = %v, want 5", bySource[GuardCoreToCore])
	}
	if got := TotalGuardbandPct(gs); got != 40 {
		t.Errorf("total guardband = %v, want 40", got)
	}
}

func TestGuardbandSourceString(t *testing.T) {
	for _, g := range Table1Guardbands() {
		if strings.HasPrefix(g.Source.String(), "GuardbandSource(") {
			t.Errorf("source %d missing name", g.Source)
		}
	}
	if !strings.HasPrefix(GuardbandSource(42).String(), "GuardbandSource(") {
		t.Error("unknown source should use fallback formatting")
	}
}

func TestMarginHeadroom(t *testing.T) {
	m := Margin{
		Component: "core0",
		Nominal:   Point{VoltageMV: 1000, FreqMHz: 2000},
		Safe:      Point{VoltageMV: 900, FreqMHz: 2000},
	}
	if got := m.UndervoltHeadroomPct(); got != 10 {
		t.Fatalf("headroom = %v, want 10", got)
	}
}

func TestEOPTableBasics(t *testing.T) {
	tab := NewEOPTable()
	if tab.Len() != 0 {
		t.Fatal("new table not empty")
	}
	if _, err := tab.Lookup("core0"); !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("Lookup on empty table: %v", err)
	}
	m := Margin{Component: "core0", Nominal: Point{VoltageMV: 1000, FreqMHz: 2000},
		Safe: Point{VoltageMV: 900, FreqMHz: 2000}}
	tab.Set(m)
	got, err := tab.Lookup("core0")
	if err != nil || got.Safe.VoltageMV != 900 {
		t.Fatalf("Lookup = %+v, %v", got, err)
	}
	tab.Set(Margin{Component: "core1", Safe: Point{VoltageMV: 950, FreqMHz: 1800}})
	names := tab.Components()
	if len(names) != 2 || names[0] != "core0" || names[1] != "core1" {
		t.Fatalf("Components = %v", names)
	}
}

func TestEOPTableWorstCase(t *testing.T) {
	tab := NewEOPTable()
	if _, err := tab.WorstCase(); err == nil {
		t.Fatal("WorstCase on empty table should error")
	}
	tab.Set(Margin{Component: "core0", Safe: Point{VoltageMV: 900, FreqMHz: 2600, Refresh: 2 * time.Second}})
	tab.Set(Margin{Component: "core1", Safe: Point{VoltageMV: 950, FreqMHz: 2400, Refresh: time.Second}})
	tab.Set(Margin{Component: "core2", Safe: Point{VoltageMV: 870, FreqMHz: 2500}})
	worst, err := tab.WorstCase()
	if err != nil {
		t.Fatal(err)
	}
	if worst.VoltageMV != 950 {
		t.Errorf("worst voltage = %d, want 950 (least aggressive)", worst.VoltageMV)
	}
	if worst.FreqMHz != 2400 {
		t.Errorf("worst freq = %d, want 2400", worst.FreqMHz)
	}
	if worst.Refresh != time.Second {
		t.Errorf("worst refresh = %v, want 1s", worst.Refresh)
	}
}

func TestVoltageOffsetSignProperty(t *testing.T) {
	err := quick.Check(func(nominal uint16, delta int8) bool {
		n := int(nominal)%2000 + 500 // 500..2499 mV
		p := Point{VoltageMV: n + int(delta), FreqMHz: 1000}
		off := p.VoltageOffsetPct(n)
		switch {
		case int(delta) < 0:
			return off < 0
		case int(delta) > 0:
			return off > 0
		default:
			return off == 0
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
