package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// TestSnapshotDiskRoundTrip is the disk-spill correctness pin: a
// snapshot serialized through Save and read back must re-save to the
// same bytes and stamp an ecosystem whose entire forward behaviour —
// mode entry, every window report, the deployment summary, the
// health-log bytes — is bit-identical to a stamp of the original
// in-memory snapshot.
func TestSnapshotDiskRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, err := New(lifetimeTestOptions(21))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eco.PreDeployment(); err != nil {
		t.Fatal(err)
	}
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("loaded snapshot re-saves to different bytes")
	}

	var logA, logB bytes.Buffer
	a := coldStamp(t, snap, RestoreOptions{HealthLogOut: &logA})
	b := coldStamp(t, loaded, RestoreOptions{HealthLogOut: &logB})
	wl := workload.WebFrontend()
	da, err := a.StartDeployment(vfr.ModeHighPerformance, 0.01, wl)
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.StartDeployment(vfr.ModeHighPerformance, 0.01, wl)
	if err != nil {
		t.Fatal(err)
	}
	// Include a gap so the decoded stream positions, VRT index and
	// stress schedule all get exercised, not just the first windows.
	gap := Gap{Days: 80, Duty: 0.6, AmbientCPUC: 35, AmbientDIMMC: 41}
	for _, d := range []*Deployment{da, db} {
		for w := 0; w < 6; w++ {
			if _, err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.FastForward(gap); err != nil {
			t.Fatal(err)
		}
		if _, err := d.MaybeRecharacterize(); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 6; w++ {
			if _, err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sa, sb := da.Summary(), db.Summary()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("deserialized snapshot diverged from the in-memory one:\n%+v\n%+v", sa, sb)
	}
	if sa.Recharacterized == 0 {
		t.Fatal("round trip exercised no re-characterization; the comparison proves too little")
	}
	if !bytes.Equal(logA.Bytes(), logB.Bytes()) {
		t.Fatal("health-log bytes diverged between in-memory and disk restores")
	}
	if a.Table().Len() != b.Table().Len() {
		t.Fatalf("EOP tables diverged: %d vs %d components", a.Table().Len(), b.Table().Len())
	}
}

// TestLoadSnapshotRefusesMismatchedVersion pins the version gate: a
// frame that is intact except for its version is refused, and so is a
// version-1 stream (the gob encoding of the former format).
func TestLoadSnapshotRefusesMismatchedVersion(t *testing.T) {
	b := frame(append(make([]byte, snapshotHeader), "images"...))
	binary.LittleEndian.PutUint64(b, SnapshotFormatVersion+1)
	_, err := LoadSnapshot(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("mismatched snapshot version not refused by the version gate: %v", err)
	}
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(bytes.NewReader(v1.Bytes())); err == nil {
		t.Fatal("version-1 snapshot accepted")
	}
}

// TestSaveRefusesPostDeploymentState: disk persistence covers the
// pre-deployment characterization checkpoint only; snapshots taken
// after mode entry (or mid-life) must refuse loudly.
func TestSaveRefusesPostDeploymentState(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, err := New(lifetimeTestOptions(22))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eco.PreDeployment(); err != nil {
		t.Fatal(err)
	}
	if _, err := eco.EnterMode(vfr.ModeHighPerformance, 0.01, workload.WebFrontend()); err != nil {
		t.Fatal(err)
	}
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("serialized a snapshot taken after mode entry")
	}
}
