package campaignd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uniserver/internal/resultstore"
	"uniserver/internal/scenario"
)

// policyGrid is the adaptive-policy campaign grid: the drift-gated
// cadence preset and the closed-loop undervolting preset, scaled to
// the resume tests' cell size.
func policyGrid(t *testing.T) ([]scenario.Scenario, []uint64) {
	t.Helper()
	var scens []scenario.Scenario
	for _, name := range []string{"drift-cadence", "ecc-closedloop"} {
		s, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scens = append(scens, s.Scale(2, 6))
	}
	return scens, []uint64{7}
}

// TestCrashResumePolicyPreset re-proves the crash-resume contract on
// cells whose deployments carry live policy state (drift baselines,
// closed-loop controller offsets): a run killed after its first cell
// must resume to the one-shot run's bytes, and the resumed report's
// policy counters must equal the one-shot report's — the counters
// travel through the store inside the persisted summaries, not
// through any in-process controller state.
func TestCrashResumePolicyPreset(t *testing.T) {
	scens, seeds := policyGrid(t)
	ref, err := scenario.RunCampaign(scenario.Campaign{Scenarios: scens, Seeds: seeds, Parallel: 1})
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	refByName := map[string]scenario.ScenarioReport{}
	for _, sr := range ref.Scenarios {
		refByName[sr.Scenario] = sr
	}
	// The grid must actually exercise the policies, or the test proves
	// nothing about them.
	if dc := refByName["drift-cadence"]; dc.RecharTriggered+dc.RecharSuppressed == 0 {
		t.Fatal("drift-cadence cell made no gate decisions at this grid size")
	}
	if ec := refByName["ecc-closedloop"]; ec.UndervoltSteps == 0 {
		t.Fatal("ecc-closedloop cell took no controller steps at this grid size")
	}

	dir := t.TempDir()
	st1, err := resultstore.Open(dir)
	if err != nil {
		t.Fatalf("Open store: %v", err)
	}
	srv1 := New(Options{Store: st1, Pool: 1})
	srv1.testCellDone = func(runID string, gi int, res scenario.Result) {
		srv1.cancel()
	}
	p1, err := srv1.plan(scens, seeds, 0, 1)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if _, err = srv1.launch(p1, nil); err == nil {
		t.Fatalf("interrupted campaign reported success")
	}
	srv1.Close()

	st2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatalf("re-Open store: %v", err)
	}
	srv2 := New(Options{Store: st2, Pool: 1})
	defer srv2.Close()
	if n, err := srv2.ResumeIncomplete(); err != nil || n != 1 {
		t.Fatalf("ResumeIncomplete = %d, %v; want 1 run", n, err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	var final resultstore.RunManifest
	for {
		if m, ok := st2.GetRun(p1.runID); ok && m.Status != resultstore.RunRunning {
			final = m
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed run did not complete in time")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if final.Status != resultstore.RunComplete {
		t.Fatalf("resumed run finished %q (%s), want complete", final.Status, final.Error)
	}
	if final.FingerprintSHA256 != ref.FingerprintSHA256 {
		t.Errorf("resumed policy campaign diverged from the one-shot run:\n got %s\nwant %s",
			final.FingerprintSHA256, ref.FingerprintSHA256)
	}
	if final.CachedCells != 1 {
		t.Errorf("resumed run served %d cells from the store, want 1", final.CachedCells)
	}
	if final.Report == nil {
		t.Fatal("complete manifest carries no report")
	}
	for _, sr := range final.Report.Scenarios {
		want := refByName[sr.Scenario]
		if sr.RecharTriggered != want.RecharTriggered ||
			sr.RecharSuppressed != want.RecharSuppressed ||
			sr.UndervoltSteps != want.UndervoltSteps ||
			sr.ECCBackoffs != want.ECCBackoffs ||
			sr.Recharacterized != want.Recharacterized {
			t.Errorf("%s policy counters diverged after resume:\n got %+v\nwant %+v",
				sr.Scenario, sr, want)
		}
	}
	for i, key := range p1.cellKeys {
		rec, ok := st2.GetCell(key)
		if !ok {
			t.Fatalf("cell %d missing after resume", i)
		}
		if rec.Fingerprint != ref.Results[i].Fingerprint {
			t.Errorf("cell %d fingerprint diverged after resume (scenario %s seed %d)",
				i, rec.Scenario, rec.Seed)
		}
	}
}

// TestCrashResumeDeterminism is the satellite the result store exists
// for: a server hard-stopped mid-campaign (after at least one cell has
// persisted) must, on restart against the same store directory, finish
// the run with per-cell fingerprints byte-identical to an
// uninterrupted run — and must NOT re-execute the cells that already
// persisted (the store's hit counters prove it).
func TestCrashResumeDeterminism(t *testing.T) {
	ref := referenceReport(t)
	scens, seeds := testGrid()
	dir := t.TempDir()

	// --- First life: run with a one-slot pool and Parallel=1 so cells
	// complete strictly in grid order, and kill the server the moment
	// cell 0 lands.
	st1, err := resultstore.Open(dir)
	if err != nil {
		t.Fatalf("Open store: %v", err)
	}
	srv1 := New(Options{Store: st1, Pool: 1})
	srv1.testCellDone = func(runID string, gi int, res scenario.Result) {
		// The "crash": cancel the server's context at a cell boundary.
		// The cell is already persisted (testCellDone fires after the
		// put), so this models SIGKILL-after-fsync — the strongest state
		// a real crash can leave behind.
		srv1.cancel()
	}
	p1, err := srv1.plan(scens, seeds, 0, 1)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	_, err = srv1.launch(p1, nil)
	if err == nil {
		t.Fatalf("interrupted campaign reported success")
	}
	srv1.Close()

	persisted, err := st1.CellCount()
	if err != nil {
		t.Fatalf("CellCount: %v", err)
	}
	if persisted != 1 {
		t.Fatalf("%d cells persisted before the crash, want exactly 1 (Parallel=1, pool=1, killed after cell 0)", persisted)
	}
	m, ok := st1.GetRun(p1.runID)
	if !ok || m.Status != resultstore.RunRunning {
		t.Fatalf("post-crash manifest = %+v (ok=%v), want status running — the resume signal", m, ok)
	}

	// --- Second life: a fresh Server over the same directory, as after
	// a process restart. ResumeIncomplete must find the running manifest
	// and finish the run in the background.
	st2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatalf("re-Open store: %v", err)
	}
	srv2 := New(Options{Store: st2, Pool: 1})
	n, err := srv2.ResumeIncomplete()
	if err != nil {
		t.Fatalf("ResumeIncomplete: %v", err)
	}
	if n != 1 {
		t.Fatalf("ResumeIncomplete relaunched %d runs, want 1", n)
	}
	deadline := time.Now().Add(2 * time.Minute)
	var final resultstore.RunManifest
	for {
		if m, ok := st2.GetRun(p1.runID); ok && m.Status != resultstore.RunRunning {
			final = m
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed run did not complete in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv2.Close()

	if final.Status != resultstore.RunComplete {
		t.Fatalf("resumed run finished %q (%s), want complete", final.Status, final.Error)
	}
	// The resumed campaign's fingerprint is byte-identical to the
	// uninterrupted direct run — stored cell plus re-executed cells
	// compose to the same bytes.
	if final.FingerprintSHA256 != ref.FingerprintSHA256 {
		t.Errorf("resumed campaign fingerprint diverged from the uninterrupted run:\n got %s\nwant %s",
			final.FingerprintSHA256, ref.FingerprintSHA256)
	}
	// Exactly the pre-crash cell was served from the store; the rest
	// executed. Hits are process-local to the second life, so one hit ==
	// one cell NOT re-executed.
	if final.CachedCells != 1 {
		t.Errorf("resumed run served %d cells from the store, want 1", final.CachedCells)
	}
	stats := st2.Stats()
	if stats.Hits != 1 {
		t.Errorf("store hits after resume = %d, want 1 (completed cells must not re-execute)", stats.Hits)
	}
	if stats.Puts != uint64(len(p1.cellKeys)-1) {
		t.Errorf("store puts after resume = %d, want %d (only the missing cells ran)", stats.Puts, len(p1.cellKeys)-1)
	}
	// Per-cell fingerprints, stored vs reference, byte for byte.
	for i, key := range p1.cellKeys {
		rec, ok := st2.GetCell(key)
		if !ok {
			t.Fatalf("cell %d missing after resume", i)
		}
		if rec.Fingerprint != ref.Results[i].Fingerprint {
			t.Errorf("cell %d fingerprint diverged after resume (scenario %s seed %d)",
				i, rec.Scenario, rec.Seed)
		}
	}

	// --- Third life: nothing to resume, everything cached. A fresh
	// server finds no running manifests, and re-submitting the campaign
	// touches no fleet at all.
	st3, err := resultstore.Open(dir)
	if err != nil {
		t.Fatalf("re-Open store: %v", err)
	}
	srv3 := New(Options{Store: st3, Pool: 1})
	defer srv3.Close()
	if n, err := srv3.ResumeIncomplete(); err != nil || n != 0 {
		t.Fatalf("third-life ResumeIncomplete = %d, %v; want 0 runs", n, err)
	}
	p3, err := srv3.plan(scens, seeds, 0, 1)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	rep, err := srv3.launch(p3, nil)
	if err != nil {
		t.Fatalf("fully-cached rerun: %v", err)
	}
	if rep.CachedCells != len(p1.cellKeys) {
		t.Errorf("fully-cached rerun executed %d cells", len(p1.cellKeys)-rep.CachedCells)
	}
	if rep.FingerprintSHA256 != ref.FingerprintSHA256 {
		t.Errorf("fully-cached rerun fingerprint diverged")
	}
}

// TestResumeCountsFailedRuns: a run resumed in the background whose
// execution fails — here because the store's characterization spill
// directory is stamped by another snapshot format — is counted in
// resume_failures, which GET /api/v1/store and the done event report,
// and the counter stays out of every fingerprint: once the spill is
// repaired, the same campaign completes with the direct run's
// fingerprint while the done event still carries the count.
func TestResumeCountsFailedRuns(t *testing.T) {
	ref := referenceReport(t)
	scens, seeds := testGrid()
	dir := t.TempDir()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatalf("Open store: %v", err)
	}
	// A crashed run: its manifest says running and no cell completed.
	p, err := New(Options{Store: st}).plan(scens, seeds, 0, 1)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if err := st.PutRun(p.manifest(resultstore.RunRunning)); err != nil {
		t.Fatal(err)
	}
	stamp := filepath.Join(st.CharactDir(), "VERSION")
	if err := os.MkdirAll(st.CharactDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stamp, []byte("999\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := New(Options{Store: st, Pool: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	if n, err := srv.ResumeIncomplete(); err != nil || n != 1 {
		t.Fatalf("ResumeIncomplete = %d, %v; want 1 run", n, err)
	}
	deadline := time.Now().Add(time.Minute)
	for srv.stats().ResumeFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the resumed run's failure was never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m, ok := st.GetRun(p.runID); !ok || m.Status != resultstore.RunFailed {
		t.Fatalf("resumed run's manifest = %+v (ok=%t), want failed", m, ok)
	}
	var storeInfo struct {
		Stats storeStats `json:"stats"`
	}
	getJSON(t, ts, "/api/v1/store", &storeInfo)
	if storeInfo.Stats.ResumeFailures != 1 {
		t.Errorf("GET /api/v1/store stats = %+v, want 1 resume failure", storeInfo.Stats)
	}

	if err := os.Remove(stamp); err != nil {
		t.Fatal(err)
	}
	code, events := submit(t, ts, inlineSubmission(t))
	done := events[len(events)-1]
	if code != http.StatusOK || done.Type != "done" || done.Status != "complete" {
		t.Fatalf("resubmission: status %d, last event %+v", code, done)
	}
	if done.FingerprintSHA256 != ref.FingerprintSHA256 {
		t.Errorf("fingerprint after a counted resume failure diverged from the direct run:\n got %s\nwant %s",
			done.FingerprintSHA256, ref.FingerprintSHA256)
	}
	if done.Store == nil || done.Store.ResumeFailures != 1 {
		t.Errorf("done store stats = %+v, want 1 resume failure", done.Store)
	}
	if data, err := json.Marshal(storeStats{}); err != nil || strings.Contains(string(data), "resume_failures") {
		t.Errorf("stats with no resume failures marshal as %s (%v); want the field omitted", data, err)
	}
}
