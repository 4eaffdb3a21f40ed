package silicon

import (
	"testing"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
)

func agedChip(seed uint64) *Chip {
	return Fabricate(Process28nm(), "aging-part", 4,
		vfr.Point{VoltageMV: 844, FreqMHz: 2600}, 1, rng.New(seed))
}

func TestAgingShiftMonotone(t *testing.T) {
	m := DefaultAgingModel()
	prev := -1.0
	for _, h := range []float64{0, 100, 1000, 5000, 20000} {
		s := m.ShiftMV(h)
		if s < prev {
			t.Fatalf("shift not monotone at %v hours", h)
		}
		prev = s
	}
	if m.ShiftMV(0) != 0 || m.ShiftMV(-5) != 0 {
		t.Fatal("non-positive stressed time should not shift")
	}
}

func TestAgingSublinear(t *testing.T) {
	m := DefaultAgingModel()
	// Power law with exponent < 1: doubling time less than doubles
	// the shift.
	if m.ShiftMV(2000) >= 2*m.ShiftMV(1000) {
		t.Fatal("aging should be sub-linear in time")
	}
}

func TestAgingMagnitudeFirstYear(t *testing.T) {
	m := DefaultAgingModel()
	year := m.ShiftMV(8760) // one year fully stressed
	if year < 5 || year > 25 {
		t.Fatalf("first-year shift = %.1f mV, want a few VID steps", year)
	}
}

func TestChipAgeRaisesVcrit(t *testing.T) {
	c := agedChip(1)
	before := c.VcritMV(0, 2600)
	fmaxBefore := c.FMaxMHz(0, 844)
	c.Age(DefaultAgingModel(), 90*24*time.Hour, 0.8)
	after := c.VcritMV(0, 2600)
	if after <= before {
		t.Fatalf("aging did not raise Vcrit: %v -> %v", before, after)
	}
	if c.FMaxMHz(0, 844) > fmaxBefore {
		t.Fatal("aging should not raise fmax")
	}
	if c.StressedHours <= 0 {
		t.Fatal("stressed hours not accumulated")
	}
}

func TestChipAgeAccumulates(t *testing.T) {
	c := agedChip(2)
	c.Age(DefaultAgingModel(), 1000*time.Hour, 1)
	s1 := c.AgeShiftMV
	c.Age(DefaultAgingModel(), 1000*time.Hour, 1)
	if c.AgeShiftMV <= s1 {
		t.Fatal("second aging period did not accumulate")
	}
	if c.StressedHours != 2000 {
		t.Fatalf("stressed hours = %v", c.StressedHours)
	}
}

func TestChipAgeStressScaling(t *testing.T) {
	idle := agedChip(3)
	busy := agedChip(3)
	idle.Age(DefaultAgingModel(), 1000*time.Hour, 0.1)
	busy.Age(DefaultAgingModel(), 1000*time.Hour, 1.0)
	if busy.AgeShiftMV <= idle.AgeShiftMV {
		t.Fatal("heavier stress should age faster")
	}
	// Clamping.
	c := agedChip(4)
	c.Age(DefaultAgingModel(), 100*time.Hour, 5)
	if c.StressedHours != 100 {
		t.Fatalf("stress not clamped to 1: %v", c.StressedHours)
	}
	c.Age(DefaultAgingModel(), -time.Hour, 1)
	if c.StressedHours != 100 {
		t.Fatal("negative duration aged the chip")
	}
}
