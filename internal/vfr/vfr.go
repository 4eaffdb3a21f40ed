// Package vfr defines the Voltage-Frequency-Refresh (V-F-R) operating
// point vocabulary shared by every UniServer layer, together with the
// guardband accounting that motivates the whole project (Table 1 of
// the paper) and the Extended Operating Point (EOP) tables the
// StressLog daemon produces and the hypervisor consumes.
//
// Operating points use integer millivolts and megahertz and a
// time.Duration refresh interval so that points compare exactly and
// can be used as map keys without floating-point identity traps.
package vfr

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// NominalRefresh is the JEDEC-standard DRAM retention window: every
// cell must be refreshed at least once every 64 ms.
const NominalRefresh = 64 * time.Millisecond

// Point is a V-F-R operating point. Voltage and frequency describe the
// CPU domain; Refresh describes the DRAM domain. A zero Refresh means
// "unspecified / CPU-only point".
type Point struct {
	VoltageMV int           // supply voltage in millivolts
	FreqMHz   int           // core clock in MHz
	Refresh   time.Duration // DRAM refresh interval (0 = unspecified)
}

// String renders the point compactly, e.g. "0.844V@2600MHz/64ms".
func (p Point) String() string {
	if p.Refresh == 0 {
		return fmt.Sprintf("%.3fV@%dMHz", float64(p.VoltageMV)/1000, p.FreqMHz)
	}
	return fmt.Sprintf("%.3fV@%dMHz/%s", float64(p.VoltageMV)/1000, p.FreqMHz, p.Refresh)
}

// Valid reports whether the point has physically meaningful values.
func (p Point) Valid() bool {
	return p.VoltageMV > 0 && p.FreqMHz > 0 && p.Refresh >= 0
}

// VoltageOffsetPct returns the relative offset of p's voltage from the
// given nominal voltage, in percent; negative values are undervolting.
func (p Point) VoltageOffsetPct(nominalMV int) float64 {
	return 100 * float64(p.VoltageMV-nominalMV) / float64(nominalMV)
}

// WithVoltage returns a copy of p at the given voltage.
func (p Point) WithVoltage(mv int) Point { p.VoltageMV = mv; return p }

// Mode labels the operating regimes the Predictor advises on.
type Mode int

const (
	// ModeNominal runs at manufacturer guardbands (baseline).
	ModeNominal Mode = iota
	// ModeHighPerformance holds nominal frequency while shaving the
	// voltage guardband revealed by characterization.
	ModeHighPerformance
	// ModeLowPower scales voltage and frequency down together for the
	// minimum-energy configuration that still meets the SLA.
	ModeLowPower
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNominal:
		return "nominal"
	case ModeHighPerformance:
		return "high-performance"
	case ModeLowPower:
		return "low-power"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// GuardbandSource identifies one contributor to the manufacturer's
// pessimistic voltage margin (Table 1).
type GuardbandSource int

const (
	// GuardVoltageDroop covers di/dt supply noise events (~20%).
	GuardVoltageDroop GuardbandSource = iota
	// GuardVmin covers low-voltage SRAM reliability (~15%).
	GuardVmin
	// GuardCoreToCore covers within-die core variation (~5%).
	GuardCoreToCore
)

// String implements fmt.Stringer.
func (g GuardbandSource) String() string {
	switch g {
	case GuardVoltageDroop:
		return "voltage droops"
	case GuardVmin:
		return "Vmin"
	case GuardCoreToCore:
		return "core-to-core variations"
	default:
		return fmt.Sprintf("GuardbandSource(%d)", int(g))
	}
}

// Guardband is one row of Table 1: a source of variation and the
// voltage up-scaling (in percent of nominal) the manufacturer adds to
// cover it.
type Guardband struct {
	Source GuardbandSource
	Pct    float64
}

// Table1Guardbands returns the paper's Table 1: the conservative
// voltage guardbands adopted by manufacturers against each source of
// variation.
func Table1Guardbands() []Guardband {
	return []Guardband{
		{GuardVoltageDroop, 20},
		{GuardVmin, 15},
		{GuardCoreToCore, 5},
	}
}

// TotalGuardbandPct returns the summed voltage up-scaling across the
// given guardbands.
func TotalGuardbandPct(gs []Guardband) float64 {
	total := 0.0
	for _, g := range gs {
		total += g.Pct
	}
	return total
}

// Margin records, for one hardware component, the safe operating
// boundary discovered by characterization: the most aggressive point
// that completed all stress tests without uncorrected errors, plus the
// safety cushion the StressLog applies before publishing it.
type Margin struct {
	Component   string        // e.g. "core3", "dimm1"
	Nominal     Point         // manufacturer point
	CrashPoint  Point         // most aggressive point observed to fail
	Safe        Point         // published EOP = crash point + cushion
	CushionMV   int           // voltage cushion applied above crash
	CushionTime time.Duration // refresh cushion applied below failure
}

// UndervoltHeadroomPct returns how far (in percent of nominal voltage)
// the published safe point sits below nominal: the recovered margin.
func (m Margin) UndervoltHeadroomPct() float64 {
	return -m.Safe.VoltageOffsetPct(m.Nominal.VoltageMV)
}

// EOPTable is the set of per-component extended operating points the
// StressLog publishes to the system software. It is keyed by component
// name. Only the table's builder calls Set: a published table is never
// written, so its readers — the Predictor, the hypervisor, every
// snapshot and stamp of the node — share it.
type EOPTable struct {
	margins map[string]Margin
}

// NewEOPTable returns an empty table.
func NewEOPTable() *EOPTable {
	return &EOPTable{margins: make(map[string]Margin)}
}

// ErrUnknownComponent is returned by Lookup for components that have
// not been characterized.
var ErrUnknownComponent = errors.New("vfr: component not characterized")

// Set records or replaces the margin for a component.
func (t *EOPTable) Set(m Margin) {
	t.margins[m.Component] = m
}

// Lookup returns the margin for a component.
func (t *EOPTable) Lookup(component string) (Margin, error) {
	m, ok := t.margins[component]
	if !ok {
		return Margin{}, fmt.Errorf("%w: %q", ErrUnknownComponent, component)
	}
	return m, nil
}

// Components returns the characterized component names in sorted order.
func (t *EOPTable) Components() []string {
	names := make([]string, 0, len(t.margins))
	for name := range t.margins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of characterized components.
func (t *EOPTable) Len() int { return len(t.margins) }

// WorstCase returns the least aggressive safe point across all
// components — the system-wide point that is safe for every component,
// which is what a conservative (non-UniServer) deployment would use.
// It returns an error if the table is empty.
func (t *EOPTable) WorstCase() (Point, error) {
	if len(t.margins) == 0 {
		return Point{}, errors.New("vfr: empty EOP table")
	}
	var worst Point
	first := true
	for _, m := range t.margins {
		if first {
			worst = m.Safe
			first = false
			continue
		}
		if m.Safe.VoltageMV > worst.VoltageMV {
			worst.VoltageMV = m.Safe.VoltageMV
		}
		if m.Safe.FreqMHz < worst.FreqMHz {
			worst.FreqMHz = m.Safe.FreqMHz
		}
		if m.Safe.Refresh != 0 && (worst.Refresh == 0 || m.Safe.Refresh < worst.Refresh) {
			worst.Refresh = m.Safe.Refresh
		}
	}
	return worst, nil
}
