package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// TestSnapshotDiskRoundTrip is the disk-spill correctness pin: a
// snapshot serialized through Save and read back must hold images
// deeply equal to the saved ones, re-save to the same bytes and stamp
// an ecosystem whose entire forward behaviour — mode entry, every
// window report, the deployment summary, the health-log bytes — is
// bit-identical to a stamp of the original in-memory snapshot. The
// inputs cover several seeds, the default and the small memory, the
// hetero-bins preset's second part and a DIMM with no VRT cells (an
// empty telegraph bitset extent).
func TestSnapshotDiskRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	i7 := lifetimeTestOptions(23)
	i7.SetPart(cpu.PartI7_3970X())
	defaults := DefaultOptions()
	defaults.Seed = 1
	inputs := []struct {
		name string
		opts Options
		// edit, when set, changes the characterized ecosystem before
		// the snapshot is taken.
		edit func(t *testing.T, eco *Ecosystem)
	}{
		{name: "small/seed=21", opts: lifetimeTestOptions(21)},
		{name: "small/seed=5", opts: smallOptions(5)},
		{name: "default/seed=1", opts: defaults},
		{name: "hetero-bins/i7-3970X", opts: i7},
		{name: "no-VRT-DIMM", opts: lifetimeTestOptions(24), edit: dropFirstDIMMVRT},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			eco, err := New(in.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eco.PreDeployment(); err != nil {
				t.Fatal(err)
			}
			if in.edit != nil {
				in.edit(t, eco)
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
			if !reflect.DeepEqual(loaded.img, snap.img) {
				t.Fatal("loaded images differ from the saved ones")
			}
			// A reader that does not report its length takes the
			// growing-buffer path, to the same images.
			streamed, err := LoadSnapshot(struct{ io.Reader }{bytes.NewReader(buf.Bytes())})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(streamed.img, snap.img) {
				t.Fatal("images loaded from a stream differ from the saved ones")
			}
			short := buf.Bytes()[:buf.Len()-1]
			for _, r := range []io.Reader{bytes.NewReader(short), struct{ io.Reader }{bytes.NewReader(short)}} {
				if _, err := LoadSnapshot(r); err == nil || !strings.Contains(err.Error(), "truncated") {
					t.Fatalf("truncated snapshot: got %v, want a truncation error", err)
				}
			}
			var again bytes.Buffer
			if err := loaded.Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Fatal("loaded snapshot re-saves to different bytes")
			}
			sameForwardBehaviour(t, snap, loaded)
		})
	}
}

// dropFirstDIMMVRT removes the first DIMM's VRT cells, leaving it a
// DIMM with weak cells but an empty telegraph bitset.
func dropFirstDIMMVRT(t *testing.T, eco *Ecosystem) {
	vrt := func(c dram.WeakCell) bool { return c.AltRetentionSec > 0 }
	d := eco.Mem.Domains[0].DIMMs[0]
	if !slices.ContainsFunc(d.Weak, vrt) {
		t.Fatal("the first DIMM has no VRT cells to drop")
	}
	d.Weak = slices.DeleteFunc(slices.Clone(d.Weak), vrt)
	eco.Mem.Reindex()
	if len(d.Weak) == 0 {
		t.Fatal("the first DIMM has no stable cells")
	}
}

// sameForwardBehaviour stamps both snapshots and drives them through
// the same deployment, a fast-forward gap and a re-characterization:
// the summaries, the health-log bytes and the EOP tables must match.
func sameForwardBehaviour(t *testing.T, snap, loaded *Snapshot) {
	t.Helper()
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

// benchSnapshot characterizes the DefaultOptions seed-1 node and
// returns its snapshot and the bytes Save writes for it.
func benchSnapshot(b *testing.B) (*Snapshot, []byte) {
	b.Helper()
	opts := DefaultOptions()
	opts.Seed = 1
	eco, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eco.PreDeployment(); err != nil {
		b.Fatal(err)
	}
	snap, err := eco.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		b.Fatal(err)
	}
	return snap, buf.Bytes()
}

// BenchmarkSnapshotSave times Save of the DefaultOptions seed-1
// snapshot into a reused buffer.
func BenchmarkSnapshotSave(b *testing.B) {
	snap, saved := benchSnapshot(b)
	var buf bytes.Buffer
	b.SetBytes(int64(len(saved)))
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := snap.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad times LoadSnapshot of the DefaultOptions
// seed-1 snapshot from a *bytes.Reader, as the spill reads its files.
func BenchmarkSnapshotLoad(b *testing.B) {
	_, saved := benchSnapshot(b)
	b.SetBytes(int64(len(saved)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LoadSnapshot(bytes.NewReader(saved)); err != nil {
			b.Fatal(err)
		}
	}
}
