package campaignd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"uniserver/internal/core"
	"uniserver/internal/resultstore"
	"uniserver/internal/scenario"
)

// testGrid is the small scenario grid the API tests submit: two
// presets scaled down to 4 fast cells.
func testGrid() ([]scenario.Scenario, []uint64) {
	return []scenario.Scenario{
		scenario.Baseline().Scale(2, 6),
		scenario.ModeChurn().Scale(2, 6),
	}, []uint64{11, 12}
}

// referenceReport runs the test grid directly on scenario.RunCampaign —
// the one-shot CLI path — for fingerprint comparison against serve
// mode.
func referenceReport(t *testing.T) scenario.Report {
	t.Helper()
	scens, seeds := testGrid()
	rep, err := scenario.RunCampaign(scenario.Campaign{Scenarios: scens, Seeds: seeds, Parallel: 1})
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	return rep
}

func newTestServer(t *testing.T, pool int) (*Server, *httptest.Server) {
	t.Helper()
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open store: %v", err)
	}
	srv := New(Options{Store: st, Pool: pool})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// submit posts body to the campaign endpoint and decodes the NDJSON
// stream.
func submit(t *testing.T, ts *httptest.Server, body string) (int, []event) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /api/v1/campaigns: %v", err)
	}
	defer resp.Body.Close()
	var events []event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("stream line is not JSON: %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return resp.StatusCode, events
}

// inlineSubmission renders the test grid as an inline-scenario
// submission (no preset rescaling ambiguity, byte-stable).
func inlineSubmission(t *testing.T) string {
	t.Helper()
	scens, seeds := testGrid()
	body, err := json.Marshal(SubmitRequest{Scenarios: scens, Seeds: seeds, Parallel: 1})
	if err != nil {
		t.Fatalf("marshaling submission: %v", err)
	}
	return string(body)
}

// TestSubmitStreamFetchRoundTrip drives the full API path: submit a
// campaign, watch the NDJSON stream, then fetch the run manifest, a
// cell record, and the store stats — and pin the streamed fingerprint
// against the direct scenario.RunCampaign path (serve mode must be
// byte-identical to the CLI).
func TestSubmitStreamFetchRoundTrip(t *testing.T) {
	ref := referenceReport(t)
	_, ts := newTestServer(t, 1)

	code, events := submit(t, ts, inlineSubmission(t))
	if code != http.StatusOK {
		t.Fatalf("submit status = %d, want 200", code)
	}
	if len(events) != 6 { // run + 4 cells + done
		t.Fatalf("stream has %d events, want 6: %+v", len(events), events)
	}
	if events[0].Type != "run" || events[0].Cells != 4 || events[0].RunID == "" {
		t.Fatalf("first event = %+v, want a run header with 4 cells", events[0])
	}
	for _, ev := range events[1:5] {
		if ev.Type != "cell" || ev.FingerprintSHA256 == "" || ev.Err != "" || ev.Summary == nil {
			t.Fatalf("cell event malformed: %+v", ev)
		}
	}
	done := events[5]
	if done.Type != "done" || done.Status != "complete" {
		t.Fatalf("last event = %+v, want done/complete", done)
	}
	if done.FingerprintSHA256 != ref.FingerprintSHA256 {
		t.Errorf("served campaign fingerprint diverged from the direct run:\n got %s\nwant %s",
			done.FingerprintSHA256, ref.FingerprintSHA256)
	}
	if done.Store == nil || done.Store.Puts != 4 {
		t.Errorf("done store stats = %+v, want 4 puts", done.Store)
	}

	// Fetch the run by ID: completed manifest with the full report.
	var m resultstore.RunManifest
	getJSON(t, ts, "/api/v1/runs/"+done.RunID, &m)
	if m.Status != resultstore.RunComplete || m.Report == nil {
		t.Fatalf("run manifest = status %q report %v, want complete with report", m.Status, m.Report != nil)
	}
	if m.FingerprintSHA256 != ref.FingerprintSHA256 {
		t.Errorf("manifest fingerprint diverged from the direct run")
	}
	if len(m.CellKeys) != 4 {
		t.Fatalf("manifest has %d cell keys, want 4", len(m.CellKeys))
	}

	// Fetch one cell by key: a full record whose fingerprint hash
	// matches the reference cell.
	var rec resultstore.CellRecord
	getJSON(t, ts, "/api/v1/cells/"+m.CellKeys[0], &rec)
	if rec.FingerprintSHA256 != ref.Results[0].FingerprintSHA256 {
		t.Errorf("stored cell 0 fingerprint diverged from the direct run")
	}

	// The run listing includes it; the store endpoint counts its cells.
	var rows []map[string]any
	getJSON(t, ts, "/api/v1/runs", &rows)
	if len(rows) != 1 || rows[0]["id"] != done.RunID {
		t.Errorf("run listing = %v, want the one run", rows)
	}
	var storeInfo struct {
		Cells int `json:"cells"`
	}
	getJSON(t, ts, "/api/v1/store", &storeInfo)
	if storeInfo.Cells != 4 {
		t.Errorf("store reports %d cells, want 4", storeInfo.Cells)
	}

	// Re-submitting the identical campaign serves every cell from the
	// store: zero executions, identical fingerprint.
	_, events2 := submit(t, ts, inlineSubmission(t))
	done2 := events2[len(events2)-1]
	if done2.Status != "complete" || done2.CachedCells != 4 {
		t.Fatalf("re-submit done = %+v, want complete with 4 cached cells", done2)
	}
	if done2.FingerprintSHA256 != ref.FingerprintSHA256 {
		t.Errorf("cache-served campaign fingerprint diverged")
	}
	if done2.RunID != done.RunID {
		t.Errorf("identical submission landed on a different run ID (content addressing broke)")
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status = %d, want 200", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
}

// TestSubmitRejectsMalformedRequests: every malformed submission is a
// 400 with a JSON error naming the problem — and never reaches the
// engine.
func TestSubmitRejectsMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, 1)
	cases := []struct {
		name, body, wantErr string
	}{
		{"bad preset", `{"presets":["no-such-preset"],"seeds":[1]}`, "unknown preset"},
		{"zero seeds", `{"presets":["baseline"],"seeds":[]}`, "no seeds"},
		{"missing seeds", `{"presets":["baseline"]}`, "no seeds"},
		{"negative shards", `{"presets":["baseline"],"seeds":[1],"shards":-2}`, "negative shards"},
		{"no scenarios", `{"seeds":[1]}`, "no scenarios"},
		{"unknown field", `{"presets":["baseline"],"seeds":[1],"bogus":true}`, "unknown field"},
		{"not json", `{{{`, "decoding"},
		{"nodes over cap", `{"presets":["baseline"],"seeds":[1],"nodes":100001}`, "over the cap of 100000"},
		{"windows over cap", `{"presets":["baseline"],"seeds":[1],"windows":10001}`, "over the cap of 10000"},
		{"seeds over cap", `{"presets":["baseline"],"seeds":[` + strings.Repeat("1,", maxSeeds) + `1]}`, "over the cap of 64"},
		{"node-windows over cap", `{"presets":["fleet-100k"],"seeds":[1,2,3,4,5,6]}`, "over the cap of 16000000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error = %q, want it to mention %q", e.Error, tc.wantErr)
			}
		})
	}

	// Unknown run and cell lookups are 404s.
	for _, path := range []string{"/api/v1/runs/r0000000000000000", "/api/v1/cells/deadbeef"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSubmitRejectsOversizedBody: a body past maxSubmitBytes is a 413
// with a JSON error, and nothing reaches the store.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	srv, ts := newTestServer(t, 1)
	body := `{"seeds":[1],"presets":["` + strings.Repeat("a", maxSubmitBytes) + `"]}`
	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("error body = %+v, %v; want a JSON error", e, err)
	}
	runs, err := srv.store.ListRuns()
	if err != nil {
		t.Fatalf("ListRuns: %v", err)
	}
	if len(runs) != 0 {
		t.Fatalf("oversized submission left %d run manifests in the store", len(runs))
	}
}

// TestSubmitLimitFitsPresetCatalogue: the largest grid the service
// ships — every preset, declared inline — fits under maxSubmitBytes and
// the grid caps, as does every preset submitted alone, so the limits
// refuse only hostile submissions.
func TestSubmitLimitFitsPresetCatalogue(t *testing.T) {
	scens, err := SubmitRequest{Presets: []string{"all"}, Seeds: []uint64{1}}.resolve()
	if err != nil {
		t.Fatalf("resolving all presets: %v", err)
	}
	body, err := json.Marshal(SubmitRequest{Scenarios: scens, Seeds: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatalf("marshaling submission: %v", err)
	}
	if len(body) > maxSubmitBytes {
		t.Fatalf("inline preset catalogue is %d bytes, over the %d-byte limit", len(body), maxSubmitBytes)
	}
	req, err := decodeSubmit(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("decoding the inline catalogue: %v", err)
	}
	got, err := req.resolve()
	if err != nil || len(got) != len(scens) {
		t.Fatalf("inline catalogue resolved to %d scenarios (%v), want %d", len(got), err, len(scens))
	}
	t.Logf("inline preset catalogue: %d scenarios, %d bytes", len(scens), len(body))
	// Every bundled preset at its own size, at the three seeds the CLI
	// and the benchmark run, fits the grid caps.
	for _, s := range scens {
		if _, err := (SubmitRequest{Presets: []string{s.Name}, Seeds: []uint64{1, 2, 3}}).resolve(); err != nil {
			t.Errorf("preset %s at its own size: %v", s.Name, err)
		}
	}
}

// TestConcurrentSubmissionsShareOneStore submits two different
// campaigns concurrently against one server (and one store) and checks
// both complete with the fingerprints their direct runs produce — the
// shared pool and the shared store must not let the runs interfere.
// Meaningful under -race.
func TestConcurrentSubmissionsShareOneStore(t *testing.T) {
	scens, _ := testGrid()
	mkBody := func(seed uint64) string {
		body, err := json.Marshal(SubmitRequest{Scenarios: scens, Seeds: []uint64{seed}, Parallel: 2})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return string(body)
	}
	refFor := func(seed uint64) string {
		rep, err := scenario.RunCampaign(scenario.Campaign{Scenarios: scens, Seeds: []uint64{seed}})
		if err != nil {
			t.Fatalf("reference campaign seed %d: %v", seed, err)
		}
		return rep.FingerprintSHA256
	}
	wantA, wantB := refFor(21), refFor(22)

	_, ts := newTestServer(t, 2)
	var wg sync.WaitGroup
	got := make([]event, 2)
	for i, seed := range []uint64{21, 22} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, events := submit(t, ts, mkBody(seed))
			got[i] = events[len(events)-1]
		}()
	}
	wg.Wait()

	for i, want := range []string{wantA, wantB} {
		if got[i].Status != "complete" {
			t.Fatalf("submission %d finished %q (%s), want complete", i, got[i].Status, got[i].Err)
		}
		if got[i].FingerprintSHA256 != want {
			t.Errorf("submission %d fingerprint diverged from its direct run", i)
		}
	}
	if got[0].RunID == got[1].RunID {
		t.Errorf("different submissions landed on the same run ID")
	}

	// Both runs' manifests are complete in the shared store.
	var rows []map[string]any
	getJSON(t, ts, "/api/v1/runs", &rows)
	if len(rows) != 2 {
		t.Fatalf("run listing has %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r["status"] != resultstore.RunComplete {
			t.Errorf("run %v status = %v, want complete", r["id"], r["status"])
		}
	}
}

// TestSubmitBesideOtherVersionSpill: a store whose spill directories
// were stamped by builds with other snapshot formats — the unversioned
// charact/ of older stores and the previous format's directory — still
// completes a submission, byte-identical to the direct run, spilling
// into a fresh directory of this build's format and leaving the old
// ones untouched.
func TestSubmitBesideOtherVersionSpill(t *testing.T) {
	ref := referenceReport(t)
	dir := t.TempDir()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatalf("Open store: %v", err)
	}
	prev := strconv.Itoa(core.SnapshotFormatVersion - 1)
	stale := []string{"charact", "charact-v" + prev}
	for _, sub := range stale {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, "VERSION"), []byte(prev+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(Options{Store: st, Pool: 1})
	defer srv.Close()
	scens, seeds := testGrid()
	_, rep, err := srv.Submit(scens, seeds, 0, 1, nil)
	if err != nil {
		t.Fatalf("submission against a store with other-version spills failed: %v", err)
	}
	if rep.FingerprintSHA256 != ref.FingerprintSHA256 {
		t.Errorf("campaign fingerprint diverged from the direct run")
	}
	if spills, _ := filepath.Glob(filepath.Join(st.CharactDir(), "*.charact")); len(spills) == 0 {
		t.Errorf("nothing spilled into %s", st.CharactDir())
	}
	for _, sub := range stale {
		data, err := os.ReadFile(filepath.Join(dir, sub, "VERSION"))
		if err != nil || strings.TrimSpace(string(data)) != prev {
			t.Errorf("%s stamp = %q, %v; want it left at %s", sub, data, err, prev)
		}
	}
}

// TestDuplicateConcurrentSubmissionRefused: the same campaign submitted
// twice at once executes once; the duplicate is told the run is already
// executing rather than racing it on the same manifest.
func TestDuplicateConcurrentSubmissionRefused(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	scens, seeds := testGrid()
	p, err := srv.plan(scens, seeds, 0, 1)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if !srv.tryActivate(p.runID) {
		t.Fatalf("fresh run ID already active")
	}
	defer srv.deactivate(p.runID)
	if _, err := srv.launch(p, nil); err != errAlreadyRunning {
		t.Fatalf("duplicate launch error = %v, want errAlreadyRunning", err)
	}
}

// TestHealthz pins the liveness endpoint CI polls while waiting for
// the server to come up.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d, want 200", resp.StatusCode)
	}
}
