// Package telemetry defines the monitoring vocabulary shared by the
// UniServer daemons: sensor readings, performance counters, hardware
// error events and the "information vector" format in which the
// HealthLog reports the health status of the hardware to the system
// software (Section 3.C of the paper: "records runtime system metrics
// in the form of an information vector, stored in a system logfile",
// extending plain error reporting "with system configuration values,
// sensor readings and performance counters").
//
// The package also provides the simulated clock every daemon runs on,
// so that campaigns spanning simulated months execute in microseconds
// and remain deterministic. A clock belongs to one ecosystem, which one
// goroutine runs at a time.
package telemetry

import (
	"encoding/json"
	"fmt"
	"time"

	"uniserver/internal/vfr"
)

// Clock is a manually advanced simulation clock. The zero value starts
// at the Unix epoch; use NewClock to pick an explicit origin. A Clock
// has one owner: it is not safe for concurrent use.
type Clock struct {
	now time.Time
}

// NewClock returns a clock set to the given origin.
func NewClock(origin time.Time) *Clock {
	return &Clock{now: origin}
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Time {
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
// It panics on negative d: simulated time never flows backwards.
func (c *Clock) Advance(d time.Duration) time.Time {
	if d < 0 {
		panic("telemetry: Advance with negative duration")
	}
	c.now = c.now.Add(d)
	return c.now
}

// Reset rewinds the clock to an arbitrary origin. Unlike Advance it
// may move time backwards: it exists for arena reuse, where a clock
// object is re-seated at a snapshot's instant before
// a fresh simulation run.
func (c *Clock) Reset(origin time.Time) {
	c.now = origin
}

// WindowQuantum is the fine observation-window granularity of the
// runtime loop: one simulated minute. Fast-forward gaps are coarse
// jumps measured in multiples of it.
const WindowQuantum = time.Minute

// AdvanceCoarse is the fast-forward primitive for lifetime gaps: it
// jumps the clock across an unsimulated span (days to months) in one
// call. Unlike Advance — whose panic-on-negative contract silently
// accepts zero — AdvanceCoarse validates and returns errors: the jump
// must be a positive whole number of observation windows, and the
// clock must sit on a window boundary (fast-forwarding mid-window
// would tear the window the fine loop is in the middle of).
func (c *Clock) AdvanceCoarse(d time.Duration) (time.Time, error) {
	if d <= 0 {
		return time.Time{}, fmt.Errorf("telemetry: AdvanceCoarse needs a positive duration, got %v", d)
	}
	if d%WindowQuantum != 0 {
		return time.Time{}, fmt.Errorf("telemetry: AdvanceCoarse duration %v is not a whole number of %v windows", d, WindowQuantum)
	}
	if !c.now.Truncate(WindowQuantum).Equal(c.now) {
		return time.Time{}, fmt.Errorf("telemetry: refusing mid-window fast-forward at %v (not on a %v boundary)",
			c.now.Format(time.RFC3339Nano), WindowQuantum)
	}
	c.now = c.now.Add(d)
	return c.now, nil
}

// SensorKind identifies a hardware sensor class.
type SensorKind int

const (
	SensorVoltage     SensorKind = iota // millivolts
	SensorTemperature                   // degrees Celsius
	SensorPower                         // watts
	SensorFrequency                     // MHz
	SensorRefresh                       // refresh interval, milliseconds
)

// String implements fmt.Stringer.
func (k SensorKind) String() string {
	switch k {
	case SensorVoltage:
		return "voltage_mv"
	case SensorTemperature:
		return "temp_c"
	case SensorPower:
		return "power_w"
	case SensorFrequency:
		return "freq_mhz"
	case SensorRefresh:
		return "refresh_ms"
	default:
		return fmt.Sprintf("sensor(%d)", int(k))
	}
}

// Reading is one sensor sample.
type Reading struct {
	Kind  SensorKind `json:"kind"`
	Value float64    `json:"value"`
}

// PerfCounters is the architectural counter snapshot attached to
// information vectors.
type PerfCounters struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	CacheMisses  uint64 `json:"cache_misses"`
	BranchMisses uint64 `json:"branch_misses"`
}

// ErrorKind classifies a hardware error event.
type ErrorKind int

const (
	// ErrCorrectable is a corrected error (cache or DRAM ECC).
	ErrCorrectable ErrorKind = iota
	// ErrUncorrectable is a detected-but-uncorrectable error.
	ErrUncorrectable
	// ErrCrash is a component crash / lockup.
	ErrCrash
	// ErrThermal is a thermal excursion event.
	ErrThermal
)

// String implements fmt.Stringer.
func (k ErrorKind) String() string {
	switch k {
	case ErrCorrectable:
		return "correctable"
	case ErrUncorrectable:
		return "uncorrectable"
	case ErrCrash:
		return "crash"
	case ErrThermal:
		return "thermal"
	default:
		return fmt.Sprintf("error(%d)", int(k))
	}
}

// ErrorEvent is one hardware error observation.
type ErrorEvent struct {
	Kind      ErrorKind `json:"kind"`
	Component string    `json:"component"`
	Count     int       `json:"count"`
	Detail    string    `json:"detail,omitempty"`
}

// InfoVector is the HealthLog's unit of reporting: everything the
// upper layers need to reason about one component over one observation
// window.
type InfoVector struct {
	Time      time.Time    `json:"time"`
	Component string       `json:"component"`
	Point     vfr.Point    `json:"point"`
	Sensors   []Reading    `json:"sensors,omitempty"`
	Counters  PerfCounters `json:"counters"`
	Errors    []ErrorEvent `json:"errors,omitempty"`
}

// CorrectableCount sums correctable error counts in the vector.
func (v *InfoVector) CorrectableCount() int {
	n := 0
	for _, e := range v.Errors {
		if e.Kind == ErrCorrectable {
			n += e.Count
		}
	}
	return n
}

// HasCrash reports whether the vector carries a crash event.
func (v *InfoVector) HasCrash() bool {
	for _, e := range v.Errors {
		if e.Kind == ErrCrash {
			return true
		}
	}
	return false
}

// MarshalLine encodes the vector as a single JSON line, the on-disk
// log format of the HealthLog daemon.
func (v InfoVector) MarshalLine() ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("telemetry: marshal info vector: %w", err)
	}
	return append(b, '\n'), nil
}

// UnmarshalLine decodes one JSON log line into an InfoVector.
func UnmarshalLine(line []byte) (InfoVector, error) {
	var v InfoVector
	if err := json.Unmarshal(line, &v); err != nil {
		return InfoVector{}, fmt.Errorf("telemetry: unmarshal info vector: %w", err)
	}
	return v, nil
}
