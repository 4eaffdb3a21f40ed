package silicon

import (
	"fmt"
	"math"
	"time"
)

// AgingModel captures the slow critical-voltage drift of transistor
// aging (BTI/HCI): the threshold voltage shifts as a sub-linear power
// law of stressed time, so a margin published at deployment erodes
// over months. This is exactly why the StressLog re-characterizes
// periodically ("these new values may need to be updated several times
// over the lifetime of a server due to the aging effects of the
// machine", Section 3.D).
type AgingModel struct {
	// CoeffMVPerKHour is the Vcrit shift after 1,000 stressed hours at
	// full stress, in millivolts.
	CoeffMVPerKHour float64
	// Exponent is the power-law exponent (BTI: ~0.15-0.25).
	Exponent float64
}

// DefaultAgingModel returns a model that erodes roughly 8-15 mV of
// margin over the first year of heavy use — a few VID steps, enough to
// matter against a 25 mV cushion.
func DefaultAgingModel() AgingModel {
	return AgingModel{CoeffMVPerKHour: 7, Exponent: 0.2}
}

// ShiftMV returns the accumulated Vcrit shift after the given total
// stressed-time in hours.
func (m AgingModel) ShiftMV(stressedHours float64) float64 {
	if stressedHours <= 0 {
		return 0
	}
	k := stressedHours / 1000
	return m.CoeffMVPerKHour * pow(k, m.Exponent)
}

// pow is math.Pow with a base<=0 guard (negative stressed time means
// no shift, never NaN).
func pow(base, exp float64) float64 {
	if base <= 0 {
		return 0
	}
	return math.Pow(base, exp)
}

// Age advances the chip's aging state by the given wall time at the
// given average stress in [0,1] (voltage/temperature acceleration is
// folded into stress). The chip's critical voltages rise accordingly.
func (c *Chip) Age(model AgingModel, d time.Duration, stress float64) {
	if d <= 0 {
		return
	}
	c.AgeBy(model, StressedHoursOf(d, stress))
}

// StressedHoursOf returns the stressed hours d at stress adds, stress
// clamped to [0,1]: what Age accumulates.
func StressedHoursOf(d time.Duration, stress float64) float64 {
	if stress < 0 {
		stress = 0
	}
	if stress > 1 {
		stress = 1
	}
	return d.Hours() * stress
}

// AgeBy accumulates the given stressed hours and recomputes the Vcrit
// shift: Age(model, d, stress) for d > 0 is
// AgeBy(model, StressedHoursOf(d, stress)).
func (c *Chip) AgeBy(model AgingModel, stressedHours float64) {
	c.StressedHours += stressedHours
	c.AgeShiftMV = model.ShiftMV(c.StressedHours)
}

// AgingReport summarizes a chip's aging state.
func (c *Chip) AgingReport() string {
	return fmt.Sprintf("%s: %.0f stressed hours, Vcrit shift +%.1f mV",
		c.Model, c.StressedHours, c.AgeShiftMV)
}
