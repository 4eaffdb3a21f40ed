package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/healthlog"
	"uniserver/internal/hypervisor"
	"uniserver/internal/stresslog"
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

// TestStampDerivesWhatSnapshotsDoNotStore: a snapshot stores no value
// that Options, a constant or its own published table gives, and the
// stamp derives each. Over seeds 1–12, both parts and both memory
// configurations, a node stamped from a saved and reloaded snapshot
// must hold every such value deeply equal to the node the snapshot was
// taken from, which New and PreDeployment built. One arena takes every
// stamp, so each also overwrites the previous configuration's values.
func TestStampDerivesWhatSnapshotsDoNotStore(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	arena := NewRestoreArena()
	for _, part := range []cpu.PartSpec{cpu.PartI5_4200U(), cpu.PartI7_3970X()} {
		for _, mem := range []dram.Config{DefaultOptions().Mem, smallOptions(0).Mem} {
			for seed := uint64(1); seed <= 12; seed++ {
				opts := DefaultOptions()
				opts.Seed, opts.Mem = seed, mem
				opts.SetPart(part)
				at := fmt.Sprintf("seed %d, part %s, memory %+v", seed, part.Model, mem)
				src, err := New(opts)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if _, err := src.PreDeployment(); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				snap, err := src.Snapshot()
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				var buf bytes.Buffer
				if err := snap.Save(&buf); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				loaded, err := LoadSnapshot(&buf)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				stamped, err := loaded.RestoreInto(arena, RestoreOptions{})
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				got, want := derivedValues(stamped), derivedValues(src)
				for name, w := range want {
					if !reflect.DeepEqual(got[name], w) {
						t.Errorf("%s: stamped %s is %+v, the characterized node's %+v", at, name, got[name], w)
					}
				}
			}
		}
	}
}

// derivedValues is every value a stamp derives instead of reading it
// from its snapshot, by name. Values other packages keep private are
// read through reflection.
func derivedValues(e *Ecosystem) map[string]any {
	return map[string]any{
		"power model":          e.power,
		"refresh model":        e.refresh,
		"stress refresh model": private(e.Stress, "refresh"),
		"thermal trip":         e.trip,
		"weak growth":          e.weakGrowthPerDay,
		"worst component":      e.worstComp,
		"worst margin":         e.worstMargin,
		"hypervisor config":    private(e.Hypervisor, "cfg"),
		"hypervisor stats":     e.Hypervisor.Stats(),
		"isolated cores":       private(e.Hypervisor, "isolatedCores"),
		"error counts":         private(e.Hypervisor, "errorCounts"),
		"machine spec":         e.Machine.Spec,
		"stress period":        private(e.Stress, "period"),
		"health config":        private(e.Health, "cfg"),
	}
}

// private returns the value of the unexported field name of the
// struct p points to.
func private(p any, name string) any {
	f := reflect.ValueOf(p).Elem().FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}

// snapshotFieldDecisions records, for every field of images and of the
// component images it holds, why the snapshot stores it ("stored"), or
// where a stamp takes the value the snapshot does not store
// ("derived"). "restated" marks a field that is stored although a stamp
// could derive it: a known restatement, not yet cut.
var snapshotFieldDecisions = map[string]string{
	"core.images.Opts":             "stored: the options a stamp derives the rest from",
	"core.images.Clock":            "stored: the characterization's end time",
	"core.images.Src":              "stored: the main stream's position",
	"core.images.Machine":          "stored: cpu.Image",
	"core.images.Mem":              "stored: dram.FlatMemory",
	"core.images.Health":           "stored: healthlog.Compiled",
	"core.images.Stress":           "stored: stresslog.Compiled",
	"core.images.Hyp":              "stored: hypervisor.Image",
	"core.images.Model":            "stored: the trained predictor",
	"core.images.PredictorAcc":     "stored: the predictor's accuracy on its training samples",
	"core.images.Power":            "derived: power.DefaultCPUModel()",
	"core.images.Refresh":          "derived: refreshModel(Opts.Mem)",
	"core.images.Trip":             "derived: thermal.DefaultTrip()",
	"core.images.WeakGrowthPerDay": "derived: zero; Snapshot refuses an ecosystem with growth armed",
	"core.images.WorstComp":        "derived: worstCPU of the published table (Snapshot.derive)",
	"core.images.WorstMargin":      "derived: worstCPU of the published table (Snapshot.derive)",

	"cpu.Image.Chip":   "stored: the fabricated, possibly aged die",
	"cpu.Image.Stream": "stored: the measurement stream's position",
	"cpu.Image.Spec":   "derived: Opts.Part",

	"dram.FlatMemory.Model":   "restated: dram.DefaultRetentionModel()",
	"dram.FlatMemory.TempC":   "restated: Opts.Mem.TempC before the first window",
	"dram.FlatMemory.Domains": "stored: the refresh domains",
	"dram.FlatMemory.DIMMs":   "stored: each DIMM's extents in the weak-cell columns",

	"healthlog.Compiled.Recorded": "stored: vectors recorded during characterization",
	"healthlog.Compiled.Crashes":  "stored: crashes recorded during characterization",
	"healthlog.Compiled.Comps":    "stored: each component's live trigger window",
	"healthlog.Compiled.Config":   "derived: healthlog.DefaultConfig(), what New passes",

	"stresslog.Compiled.Online":  "stored: the daemon's service state",
	"stresslog.Compiled.LastRun": "stored: the schedule position",
	"stresslog.Compiled.Pending": "stored: queued triggers",
	"stresslog.Compiled.History": "stored: the published margins, the table last",
	"stresslog.Compiled.Archive": "stored: the virus archive",
	"stresslog.Compiled.Refresh": "derived: refreshModel(Opts.Mem)",
	"stresslog.Compiled.Period":  "derived: Opts.StressPeriod",

	"hypervisor.Image.Profiles":    "restated: hypervisor.DefaultProfiles(), the table the object column indexes",
	"hypervisor.Image.Alloc":       "stored: the memory placements",
	"hypervisor.Image.Point":       "restated: Opts.Hyp.Nominal before a mode entry",
	"hypervisor.Image.Cfg":         "derived: Opts.Hyp",
	"hypervisor.Image.Isolated":    "derived: none; Image refuses a host that isolated a core",
	"hypervisor.Image.ErrorCounts": "derived: none; Image refuses a host that masked an error",
	"hypervisor.Image.Stats":       "derived: zero; Image refuses a host that masked an error",
	"hypervisor.Image.Panicked":    "derived: false; no runtime path panics a host",
}

// TestSnapshotImageFieldDecisions walks images and the component
// images it holds by reflection: every exported field — what Save
// encodes — must have a recorded decision, and none may be one a
// stamp derives. A decision for a stored field that no longer exists
// is stale.
func TestSnapshotImageFieldDecisions(t *testing.T) {
	components := map[reflect.Type]bool{
		reflect.TypeFor[cpu.Image]():          true,
		reflect.TypeFor[dram.FlatMemory]():    true,
		reflect.TypeFor[healthlog.Compiled](): true,
		reflect.TypeFor[stresslog.Compiled](): true,
		reflect.TypeFor[hypervisor.Image]():   true,
	}
	seen := map[string]bool{}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := typ.String() + "." + f.Name
			seen[name] = true
			switch d, ok := snapshotFieldDecisions[name]; {
			case !ok:
				t.Errorf("%s (%s) has no decision: is it a characterization output, or can a stamp derive it?", name, f.Type)
			case strings.HasPrefix(d, "derived:"):
				t.Errorf("%s is stored, but a stamp derives it (%s)", name, d)
			}
			if components[f.Type] {
				walk(f.Type)
			}
		}
	}
	walk(reflect.TypeFor[images]())
	for name, d := range snapshotFieldDecisions {
		if !seen[name] && !strings.HasPrefix(d, "derived:") {
			t.Errorf("%s is decided %q, but no image has it", name, d)
		}
	}
}

// dropFirstDIMMVRT removes the first DIMM's VRT cells, leaving it a
// DIMM with weak cells but an empty telegraph bitset.
func dropFirstDIMMVRT(t *testing.T, eco *Ecosystem) {
	d := eco.Mem.Domains[0].DIMMs[0]
	before := d.Len()
	d.Retain(func(_ int, vrt bool) bool { return !vrt })
	if d.Len() == before {
		t.Fatal("the first DIMM has no VRT cells to drop")
	}
	if d.Len() == 0 {
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

// TestLoadSnapshotRefusesEmptyStressHistory: a stamp takes its
// published table from the last stress-history entry, so a correctly
// framed, canonically encoded image without one is refused.
func TestLoadSnapshotRefusesEmptyStressHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 17)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.img.Stress.History = nil
	b, err := snap.img.encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(bytes.NewReader(frame(b))); err == nil || !strings.Contains(err.Error(), "publishes no table") {
		t.Fatalf("image without a stress history not refused by its table check: %v", err)
	}
}

// TestLoadSnapshotRefusesMalformedHealthImage: the health image's
// windows come from disk, so a correctly framed, canonically encoded
// image whose components are unsorted or duplicated, whose window
// entries go back in time, count negative errors or outnumber the
// RetainVectors of the configuration a stamp uses is refused. A characterization's window entries have all
// expired by the snapshot, so Compile leaves every window empty; the
// fixture first gives the first component two live entries, an image
// that loads, and each case breaks that.
func TestLoadSnapshotRefusesMalformedHealthImage(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 17)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if comps := snap.img.Health.Comps; len(comps) < 2 {
		t.Fatalf("health image too small to break: %d components", len(comps))
	}
	snap.img.Health.Comps = slices.Clone(snap.img.Health.Comps)
	snap.img.Health.Comps[0].Entries = []healthlog.Entry{
		{Time: snap.img.Clock.Add(-2 * time.Minute), Count: 1},
		{Time: snap.img.Clock.Add(-time.Minute), Count: 2},
	}
	if b, err := snap.img.encode(); err != nil {
		t.Fatal(err)
	} else if _, err := LoadSnapshot(bytes.NewReader(frame(b))); err != nil {
		t.Fatalf("the unbroken fixture is refused: %v", err)
	}
	breaks := map[string]func(h *healthlog.Compiled){
		"unsorted names":  func(h *healthlog.Compiled) { h.Comps[0], h.Comps[1] = h.Comps[1], h.Comps[0] },
		"duplicate name":  func(h *healthlog.Compiled) { h.Comps[1].Name = h.Comps[0].Name },
		"decreasing time": func(h *healthlog.Compiled) { h.Comps[0].Entries[1].Time = h.Comps[0].Entries[0].Time.Add(-time.Second) },
		"negative count":  func(h *healthlog.Compiled) { h.Comps[0].Entries[0].Count = -1 },
		"over retention": func(h *healthlog.Compiled) {
			h.Comps[0].Entries = slices.Repeat(h.Comps[0].Entries[:1], healthlog.DefaultConfig().RetainVectors+1)
		},
	}
	for name, brk := range breaks {
		img := snap.img
		img.Health.Comps = slices.Clone(img.Health.Comps)
		for i := range img.Health.Comps {
			img.Health.Comps[i].Entries = slices.Clone(img.Health.Comps[i].Entries)
		}
		brk(&img.Health)
		b, err := img.encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(bytes.NewReader(frame(b))); err == nil || !strings.Contains(err.Error(), "health image") {
			t.Errorf("%s: not refused by the health image check: %v", name, err)
		}
	}
}

// TestSaveRefusesPostDeploymentState pins that no post-deployment
// state reaches disk: the only way to Save is through a Snapshot, and
// Snapshot refuses an ecosystem that has entered a mode, so nothing
// taken after EnterMode can be serialized.
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
	if err == nil {
		if err := snap.Save(&bytes.Buffer{}); err == nil {
			t.Fatal("serialized a snapshot taken after mode entry")
		}
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
