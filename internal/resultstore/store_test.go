package resultstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"uniserver/internal/scenario"
)

// testRecord builds a small, internally consistent cell record.
func testRecord(t *testing.T) CellRecord {
	t.Helper()
	s := scenario.Baseline().Scale(2, 4)
	key, canonical, err := CellKey(s, 7)
	if err != nil {
		t.Fatalf("CellKey: %v", err)
	}
	fp := "nodes=2 windows=4 crashes=0\nuniserver-00 seed=7\n"
	return CellRecord{
		Key:               key,
		Scenario:          s.Name,
		Seed:              7,
		Request:           canonical,
		Fingerprint:       fp,
		FingerprintSHA256: sha256Hex(fp),
	}
}

func TestCellRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec := testRecord(t)
	if _, ok := st.GetCell(rec.Key); ok {
		t.Fatalf("empty store served a cell")
	}
	if err := st.PutCell(rec); err != nil {
		t.Fatalf("PutCell: %v", err)
	}
	got, ok := st.GetCell(rec.Key)
	if !ok {
		t.Fatalf("GetCell missed a stored key")
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, rec)
	}
	stats := st.Stats()
	if stats.Hits != 1 || stats.Misses != 1 || stats.Puts != 1 || stats.Quarantined != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put / 0 quarantined", stats)
	}
}

// TestOpenEmptyStamp treats an empty VERSION — a writer truncated it
// and has not written yet, or died — as not stamped: Open stamps the
// store instead of refusing it as a mismatch.
func TestOpenEmptyStamp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, versionFile), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("empty stamp refused: %v", err)
	}
	checkStamp(t, dir)
}

// checkStamp fails unless dir is stamped with FormatVersion.
func checkStamp(t *testing.T, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, versionFile))
	if got, want := strings.TrimSpace(string(data)), strconv.Itoa(FormatVersion); err != nil || got != want {
		t.Fatalf("stamp %q (%v), want %q", got, err, want)
	}
}

// TestOpenConcurrentFresh opens one fresh store from many goroutines
// at once, as parallel CLI runs sharing a -result-store do. Every Open
// must succeed — none may read another's half-written stamp as a
// version mismatch — and the store ends up stamped with this build's
// version, with no leftover temp files.
func TestOpenConcurrentFresh(t *testing.T) {
	const openers, rounds = 16, 200
	for r := 0; r < rounds; r++ {
		dir := filepath.Join(t.TempDir(), "store")
		var wg sync.WaitGroup
		errs := make([]error, openers)
		start := make(chan struct{})
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[g] = Open(dir)
			}()
		}
		close(start)
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("round %d: opener %d: %v", r, g, err)
			}
		}
		checkStamp(t, dir)
		if tmp, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(tmp) > 0 {
			t.Fatalf("round %d: leftover temp files %v", r, tmp)
		}
	}
}

// TestCellKeyCanonicalization pins what the content address depends
// on: everything result-bearing — the seed, the declaration, the
// Archetypes experiment switch — splits the key. The key format itself
// is pinned too: keys minted by earlier builds must still address
// their cells, so two keys recorded then must come out unchanged.
func TestCellKeyCanonicalization(t *testing.T) {
	base := scenario.Baseline().Scale(2, 4)
	key0, _, err := CellKey(base, 7)
	if err != nil {
		t.Fatalf("CellKey: %v", err)
	}
	if want := "3fece77be7906f9046050cbddd69a14c3347529051f05d1ed6cc5b08682cf51d"; key0 != want {
		t.Errorf("baseline cell key %s, recorded %s (the key format moved)", key0, want)
	}
	aging, err := scenario.ByName("aging-year")
	if err != nil {
		t.Fatal(err)
	}
	if key, _, _ := CellKey(aging, 3); key != "50c76532d7d96d78e21301665315a7e9a9c7a5f418fb1a3c6557800292df58d8" {
		t.Errorf("aging-year cell key %s moved from the recorded 50c76532…", key)
	}

	if key, _, _ := CellKey(base, 8); key == key0 {
		t.Errorf("seed did not split the content address")
	}
	arch := base
	arch.Archetypes = true
	if key, _, _ := CellKey(arch, 7); key == key0 {
		t.Errorf("Archetypes did not split the content address (it is a different experiment)")
	}
	wider := base.Scale(3, 0)
	if key, _, _ := CellKey(wider, 7); key == key0 {
		t.Errorf("node count did not split the content address")
	}
}

// cellKeyFields is the decision, for every field a scenario
// declaration encodes, on whether it bears on a cell's results. CellKey
// hashes every field either way, so editing a label moves a preset's
// key without moving its results; the table makes each new field a
// decision rather than an accident. A field that bears on results must
// never leave the key.
var cellKeyFields = map[string]bool{
	"Scenario.Name":            false, // labels the cell in reports
	"Scenario.Description":     false, // prose
	"Scenario.Nodes":           true,
	"Scenario.Windows":         true,
	"Scenario.VMs":             true,
	"Scenario.Mode":            true,
	"Scenario.RiskTarget":      true,
	"Scenario.Bins":            true,
	"Scenario.Ambient":         true,
	"Scenario.Arrival":         true,
	"Scenario.ModeSwitches":    true,
	"Scenario.Attacks":         true,
	"Scenario.Lifetime":        true,
	"Scenario.DriftMarginFrac": true,
	"Scenario.ECCLoop":         true,
	"Scenario.ECCThreshold":    true,
	"Scenario.WeakCellsPerDay": true,
	"Scenario.Archetypes":      true,

	"AmbientModel.BaseCPUC":      true,
	"AmbientModel.BaseDIMMC":     true,
	"AmbientModel.SwingC":        true,
	"AmbientModel.PeriodWindows": true,
	"AmbientModel.HeatStart":     true,
	"AmbientModel.HeatWindows":   true,
	"AmbientModel.HeatDeltaC":    true,

	"ArrivalModel.DiurnalDepth":  true,
	"ArrivalModel.PeriodWindows": true,
	"ArrivalModel.BurstStart":    true,
	"ArrivalModel.BurstWindows":  true,
	"ArrivalModel.BurstFactor":   true,

	"ModeSwitch.Window":     true,
	"ModeSwitch.Node":       true,
	"ModeSwitch.Mode":       true,
	"ModeSwitch.RiskTarget": true,

	"Attack.Node":    true,
	"Attack.Window":  true,
	"Attack.Windows": true,

	"LifetimeModel.Epochs":             true,
	"LifetimeModel.GapDays":            true,
	"LifetimeModel.GapDuty":            true,
	"LifetimeModel.RecharactEveryDays": true,
	"LifetimeModel.SeasonCPUC":         true,
	"LifetimeModel.SeasonDIMMC":        true,
}

// TestCellKeyFieldDecisions walks every exported field a scenario
// declaration encodes, nested structs and slice elements included,
// and fails on a field cellKeyFields has no decision for, or a
// decision for a field that is gone. Then a run with every field
// decided not to bear on results rewritten must fingerprint as the
// original run does.
func TestCellKeyFieldDecisions(t *testing.T) {
	seen := map[string]bool{}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Slice || typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			return
		}
		for i := range typ.NumField() {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := typ.Name() + "." + f.Name
			if seen[name] {
				continue
			}
			seen[name] = true
			if _, ok := cellKeyFields[name]; !ok {
				t.Errorf("%s (%s) has no decision in cellKeyFields: does it bear on results?", name, f.Type)
			}
			walk(f.Type)
		}
	}
	walk(reflect.TypeFor[scenario.Scenario]())
	for name := range cellKeyFields {
		if !seen[name] {
			t.Errorf("cellKeyFields decides %s, which a scenario no longer encodes", name)
		}
	}

	if testing.Short() {
		t.Skip("running scenarios is slow; skipping in -short")
	}
	run := func(s scenario.Scenario) scenario.Result {
		rep, err := scenario.RunCampaign(scenario.Campaign{Scenarios: []scenario.Scenario{s}, Seeds: []uint64{7}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results[0]
	}
	base := scenario.Baseline().Scale(2, 4)
	want := run(base)
	relabeled := base
	v := reflect.ValueOf(&relabeled).Elem()
	for name, bears := range cellKeyFields {
		if bears {
			continue
		}
		field, top := strings.CutPrefix(name, "Scenario.")
		if f := v.FieldByName(field); top && f.Kind() == reflect.String {
			f.SetString("relabeled " + field)
		} else {
			t.Fatalf("%s is decided not to bear on results, but only top-level strings are checked", name)
		}
	}
	if got := run(relabeled); got.FingerprintSHA256 != want.FingerprintSHA256 {
		t.Fatalf("a relabeled scenario fingerprints %s, the original %s: a label bears on results",
			got.FingerprintSHA256, want.FingerprintSHA256)
	}
}

// TestTornFileRecovery: a truncated record — a torn write from a
// crashed process — must be quarantined and reported as a miss, never
// returned and never crashed on, and the slot must accept a fresh put.
func TestTornFileRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec := testRecord(t)
	if err := st.PutCell(rec); err != nil {
		t.Fatalf("PutCell: %v", err)
	}

	// Tear the record: keep the first half of the bytes.
	path := filepath.Join(dir, "cells", rec.Key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading record: %v", err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("tearing record: %v", err)
	}

	if _, ok := st.GetCell(rec.Key); ok {
		t.Fatalf("torn record served as a hit")
	}
	if st.Stats().Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Stats().Quarantined)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("torn record still in place after quarantine")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", rec.Key+".json")); err != nil {
		t.Errorf("torn record not preserved in quarantine: %v", err)
	}

	// The slot must recover: re-put and re-read.
	if err := st.PutCell(rec); err != nil {
		t.Fatalf("re-put after quarantine: %v", err)
	}
	if got, ok := st.GetCell(rec.Key); !ok || got.Fingerprint != rec.Fingerprint {
		t.Errorf("slot did not recover after quarantine")
	}
}

// TestCorruptedFingerprintQuarantined: a record whose bytes parse but
// whose fingerprint hash does not match its fingerprint — bit rot, or
// a hand-edited file — fails integrity checking the same way.
func TestCorruptedFingerprintQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec := testRecord(t)
	if err := st.PutCell(rec); err != nil {
		t.Fatalf("PutCell: %v", err)
	}
	path := filepath.Join(dir, "cells", rec.Key+".json")
	data, _ := os.ReadFile(path)
	tampered := strings.Replace(string(data), "crashes=0", "crashes=9", 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found in record")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatalf("tampering record: %v", err)
	}
	if _, ok := st.GetCell(rec.Key); ok {
		t.Fatalf("tampered record served as a hit")
	}
	if st.Stats().Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Stats().Quarantined)
	}
}

// TestVersionMismatchRefusal mirrors the characterization cache's
// contract (TestSnapshotDiskRoundTrip): a store directory stamped by
// a different format version is refused at Open, loudly.
func TestVersionMismatchRefusal(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatalf("first Open: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("999\n"), 0o644); err != nil {
		t.Fatalf("restamping: %v", err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatalf("Open accepted a version-999 store")
	} else if !strings.Contains(err.Error(), "version 999") {
		t.Errorf("refusal does not name the offending version: %v", err)
	}
}

func TestRunManifestRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s := scenario.Baseline().Scale(2, 4)
	keyA, _, _ := CellKey(s, 1)
	keyB, _, _ := CellKey(s, 2)
	m := RunManifest{
		ID:        RunID([]string{keyA, keyB}),
		Status:    RunRunning,
		Scenarios: []scenario.Scenario{s},
		Seeds:     []uint64{1, 2},
		CellKeys:  []string{keyA, keyB},
	}
	if err := st.PutRun(m); err != nil {
		t.Fatalf("PutRun: %v", err)
	}
	got, ok := st.GetRun(m.ID)
	if !ok {
		t.Fatalf("GetRun missed a stored manifest")
	}
	if got.Status != RunRunning || len(got.CellKeys) != 2 || len(got.Scenarios) != 1 {
		t.Errorf("manifest round trip diverged: %+v", got)
	}
	// The resolved scenario must survive the JSON round trip exactly —
	// resume re-runs from these bytes.
	if !reflect.DeepEqual(got.Scenarios[0], s) {
		t.Errorf("scenario did not survive the manifest round trip:\n got %+v\nwant %+v", got.Scenarios[0], s)
	}
	runs, err := st.ListRuns()
	if err != nil || len(runs) != 1 || runs[0].ID != m.ID {
		t.Errorf("ListRuns = %v, %v; want the one manifest", runs, err)
	}

	// RunID is content-derived and order-sensitive.
	if RunID([]string{keyA, keyB}) != m.ID {
		t.Errorf("RunID not stable")
	}
	if RunID([]string{keyB, keyA}) == m.ID {
		t.Errorf("RunID ignores grid order")
	}
}

// TestDiffRuns exercises the comparison: identical runs match with no
// regressions; a degraded run flags availability/energy regressions
// and fingerprint changes.
func TestDiffRuns(t *testing.T) {
	repA := &scenario.Report{
		FingerprintSHA256: "aaaa",
		Scenarios: []scenario.ScenarioReport{
			{Scenario: "baseline", MeanAvailability: 0.999, EnergyKWh: 10, FingerprintSHA256: "fa"},
			{Scenario: "mode-churn", MeanAvailability: 0.99, EnergyKWh: 12, FingerprintSHA256: "fb"},
		},
	}
	a := RunManifest{ID: "ra", Status: RunComplete, Report: repA}
	same, err := DiffRuns(a, a)
	if err != nil {
		t.Fatalf("DiffRuns: %v", err)
	}
	if !same.Match || len(same.Regressions) != 0 {
		t.Errorf("self-diff reported differences: %+v", same)
	}

	repB := &scenario.Report{
		FingerprintSHA256: "bbbb",
		Scenarios: []scenario.ScenarioReport{
			{Scenario: "baseline", MeanAvailability: 0.99, EnergyKWh: 11, FingerprintSHA256: "fc"},
			{Scenario: "mode-churn", MeanAvailability: 0.99, EnergyKWh: 12, FingerprintSHA256: "fb"},
		},
	}
	b := RunManifest{ID: "rb", Status: RunComplete, Report: repB}
	d, err := DiffRuns(a, b)
	if err != nil {
		t.Fatalf("DiffRuns: %v", err)
	}
	if d.Match {
		t.Errorf("diverged runs reported as matching")
	}
	var baseRow DiffRow
	for _, r := range d.Rows {
		if r.Scenario == "baseline" {
			baseRow = r
		}
	}
	wantFlags := []string{"fingerprint-changed", "availability-regression", "energy-regression"}
	if !reflect.DeepEqual(baseRow.Flags, wantFlags) {
		t.Errorf("baseline flags = %v, want %v", baseRow.Flags, wantFlags)
	}
	if len(d.Regressions) != 2 {
		t.Errorf("regressions = %v, want availability + energy", d.Regressions)
	}

	// Runs without reports are refused.
	if _, err := DiffRuns(RunManifest{ID: "rx", Status: RunRunning}, a); err == nil {
		t.Errorf("diff accepted a report-less run")
	}
}

// TestManifestReportJSONStable guards the manifest's report embedding:
// a round-tripped report keeps its fingerprint and row hashes (the
// fields diff reads).
func TestManifestReportJSONStable(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rep := &scenario.Report{
		FingerprintSHA256: "cafe",
		Scenarios: []scenario.ScenarioReport{
			{Scenario: "baseline", MeanAvailability: 0.5, FingerprintSHA256: "f00d"},
		},
	}
	m := RunManifest{ID: RunID([]string{"z"}), Status: RunComplete, FingerprintSHA256: "cafe", Report: rep}
	if err := st.PutRun(m); err != nil {
		t.Fatalf("PutRun: %v", err)
	}
	got, ok := st.GetRun(m.ID)
	if !ok || got.Report == nil {
		t.Fatalf("manifest with report did not round trip")
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(got.Report)
	if string(a) != string(b) {
		t.Errorf("embedded report changed across the round trip:\n got %s\nwant %s", b, a)
	}
}

// TestMalformedNamesTouchNoFile pins the store's path boundary: a cell
// key or run ID that CellKey or RunID could not have minted — a
// traversal such as "../x" above all — is a miss that reads, moves and
// deletes nothing, Put refuses it, and ListRuns skips a stray file
// without quarantining it.
func TestMalformedNamesTouchNoFile(t *testing.T) {
	base := t.TempDir()
	st, err := Open(filepath.Join(base, "store"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Not a valid record: a store that opened one of these would
	// quarantine it.
	sentinel := []byte("sentinel, not a record\n")
	inStore := filepath.Join(st.Dir(), "x.json")
	outside := filepath.Join(base, "victim.json")
	for _, path := range []string{inStore, outside} {
		if err := os.WriteFile(path, sentinel, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"../x", "../../victim", "", "r", "R0123456789abcdef",
		"r0123456789ABCDEF", strings.Repeat("A", 64), strings.Repeat("a", 63)} {
		if _, ok := st.GetCell(name); ok {
			t.Errorf("GetCell(%q) served a record", name)
		}
		if _, ok := st.GetRun(name); ok {
			t.Errorf("GetRun(%q) served a manifest", name)
		}
		if err := st.PutRun(RunManifest{ID: name}); err == nil {
			t.Errorf("PutRun accepted ID %q", name)
		}
	}
	rec := CellRecord{Key: "../x", Fingerprint: "fp", FingerprintSHA256: sha256Hex("fp")}
	if err := st.PutCell(rec); err == nil {
		t.Error("PutCell accepted key \"../x\"")
	}
	stray := filepath.Join(st.Dir(), runsDir, "notes.json")
	if err := os.WriteFile(stray, sentinel, 0o644); err != nil {
		t.Fatal(err)
	}
	if runs, err := st.ListRuns(); err != nil || len(runs) != 0 {
		t.Errorf("ListRuns = %v, %v; want no runs", runs, err)
	}
	for _, path := range []string{inStore, outside, stray} {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, sentinel) {
			t.Errorf("%s was touched: %q, %v", filepath.Base(path), got, err)
		}
	}
	if q := st.Stats().Quarantined; q != 0 {
		t.Errorf("%d files quarantined, want 0", q)
	}
}
