package stresslog

import (
	"testing"

	"uniserver/internal/rng"
)

// TestVirusArchiveReusedAcrossCampaigns: the first virus-enabled
// campaign evolves and archives the voltage-noise virus; subsequent
// campaigns reuse it instead of re-evolving.
func TestVirusArchiveReusedAcrossCampaigns(t *testing.T) {
	d, _, _ := testRig(t, 25)
	p := quickParams()
	p.UseViruses = true
	p.Runs = 1

	if len(d.archive.Entries()) != 0 {
		t.Fatal("archive not empty at start")
	}
	if _, err := d.RunCampaign(p, rng.New(25)); err != nil {
		t.Fatal(err)
	}
	if len(d.archive.Entries()) != 1 {
		t.Fatalf("archive len = %d after first campaign", len(d.archive.Entries()))
	}
	first := d.archive.Entries()[0]

	if _, err := d.RunCampaign(p, rng.New(26)); err != nil {
		t.Fatal(err)
	}
	if len(d.archive.Entries()) != 1 {
		t.Fatalf("second campaign re-evolved: archive len = %d", len(d.archive.Entries()))
	}
	if d.archive.Entries()[0] != first {
		t.Fatal("archived virus mutated across campaigns")
	}
	if first.Machine != "i5-4200U" {
		t.Fatalf("entry machine = %q", first.Machine)
	}
}
