package stresslog

import (
	"testing"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/silicon"
)

// TestRecharacterizationTracksAging is the Section 3.D story: margins
// published at deployment erode as the silicon ages, and the periodic
// StressLog campaign publishes updated (less aggressive) safe points
// that restore the cushion.
func TestRecharacterizationTracksAging(t *testing.T) {
	d, clock, _ := testRig(t, 21)

	fresh, err := d.RunCampaign(quickParams(), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	freshMargin, err := fresh.Table.Lookup("i5-4200U/core0")
	if err != nil {
		t.Fatal(err)
	}

	// Six months of heavy service.
	served := 180 * 24 * time.Hour
	clock.Advance(served)
	d.machine.Chip.Age(silicon.DefaultAgingModel(), served, 0.9)
	if !d.DueAt(clock.Now()) {
		t.Fatal("periodic campaign should be due after six months")
	}

	aged, err := d.RunCampaign(quickParams(), rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	agedMargin, err := aged.Table.Lookup("i5-4200U/core0")
	if err != nil {
		t.Fatal(err)
	}

	if agedMargin.Safe.VoltageMV <= freshMargin.Safe.VoltageMV {
		t.Fatalf("aged campaign published %d mV, fresh published %d mV; aging must tighten margins",
			agedMargin.Safe.VoltageMV, freshMargin.Safe.VoltageMV)
	}
	// The drift should be small (a few VID steps), not a collapse.
	drift := agedMargin.Safe.VoltageMV - freshMargin.Safe.VoltageMV
	if drift > 30 {
		t.Fatalf("margin drift %d mV implausibly large", drift)
	}

	// The stale margin now sits inside the aged crash region's cushion:
	// running at the *fresh* safe point after aging leaves less cushion
	// than the campaign guarantees.
	agedCushion := freshMargin.Safe.VoltageMV - agedMargin.CrashPoint.VoltageMV
	if agedCushion >= freshMargin.CushionMV {
		t.Fatalf("aging did not erode the cushion: %d mV left of %d", agedCushion, freshMargin.CushionMV)
	}
}
