package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"uniserver/internal/benchhist"
)

var committed = []string{"../../BENCH_fleet.json", "../../BENCH_campaign.json"}

// copies copies the committed histories into a temp dir and returns
// the copies' fleet and campaign paths.
func copies(t *testing.T) (string, string) {
	dir := t.TempDir()
	var paths []string
	for _, src := range committed {
		dst := filepath.Join(dir, filepath.Base(src))
		if err := os.WriteFile(dst, readFile(t, src), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, dst)
	}
	return paths[0], paths[1]
}

func readFile(t *testing.T, path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSelfMergeByteIdentical merges each committed history into a copy
// of itself: nothing is new, so neither copy may change by a byte.
func TestSelfMergeByteIdentical(t *testing.T) {
	fleetPath, campaignPath := copies(t)
	for _, src := range committed {
		if err := merge(fleetPath, campaignPath, src); err != nil {
			t.Fatal(err)
		}
	}
	for i, dst := range []string{fleetPath, campaignPath} {
		if !bytes.Equal(readFile(t, dst), readFile(t, committed[i])) {
			t.Errorf("self-merge rewrote %s", filepath.Base(dst))
		}
	}
}

// TestMergeArtifactAddsNewRecord merges artifacts holding a committed
// history plus one new CI record: the history the artifact's benchmark
// field names becomes the artifact, byte for byte, the other history
// is untouched, and merging again is a no-op.
func TestMergeArtifactAddsNewRecord(t *testing.T) {
	fleetPath, campaignPath := copies(t)
	ci := benchhist.Stamp{Date: "2030-01-01T00:00:00Z", Env: "ci", GOMAXPROCS: 4}
	var fleet benchhist.FleetFile
	var campaign benchhist.CampaignFile
	if err := benchhist.Load(fleetPath, &fleet); err != nil {
		t.Fatal(err)
	}
	if err := benchhist.Load(campaignPath, &campaign); err != nil {
		t.Fatal(err)
	}
	fleet.Records = append(fleet.Records, benchhist.FleetRecord{Stamp: ci})
	campaign.Records = append(campaign.Records, benchhist.CampaignRecord{Stamp: ci, NsPerOp: 1})

	dir := t.TempDir()
	for _, tc := range []struct {
		artifact   any
		dst, other string
	}{{fleet, fleetPath, campaignPath}, {campaign, campaignPath, fleetPath}} {
		artifact := filepath.Join(dir, filepath.Base(tc.dst))
		if err := benchhist.Write(artifact, tc.artifact); err != nil {
			t.Fatal(err)
		}
		other := readFile(t, tc.other)
		for pass := 1; pass <= 2; pass++ {
			if err := merge(fleetPath, campaignPath, artifact); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readFile(t, tc.dst), readFile(t, artifact)) || !bytes.Equal(readFile(t, tc.other), other) {
				t.Fatalf("merge pass %d of %s: want exactly its new record added to %s", pass, filepath.Base(artifact), filepath.Base(tc.dst))
			}
		}
	}
}
