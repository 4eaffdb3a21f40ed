package campaignd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"uniserver/internal/resultstore"
	"uniserver/internal/scenario"
)

// SubmitRequest is the JSON body of POST /api/v1/campaigns. A
// submission names its grid either by preset (Presets, with optional
// Nodes/Windows rescaling) or inline (Scenarios, full declarations);
// the two can mix. Seeds is required. Shards, FleetWorkers and
// Parallel are execution knobs — they shape wall-clock and memory,
// never results, and never the run's identity.
type SubmitRequest struct {
	// Presets names bundled scenario presets ("aging-year", "baseline",
	// …, or "all" for the whole catalogue).
	Presets []string `json:"presets,omitempty"`
	// Scenarios carries inline scenario declarations, validated exactly
	// like preset-derived ones.
	Scenarios []scenario.Scenario `json:"scenarios,omitempty"`
	Seeds     []uint64            `json:"seeds"`

	// Nodes/Windows rescale preset scenarios (inline scenarios are
	// taken as declared); 0 keeps the preset size.
	Nodes   int `json:"nodes,omitempty"`
	Windows int `json:"windows,omitempty"`
	// Shards overrides each scenario's population shard count
	// (execution knob: canonicalized out of the content address).
	Shards int `json:"shards,omitempty"`

	FleetWorkers int `json:"fleet_workers,omitempty"`
	Parallel     int `json:"parallel,omitempty"`
}

// maxSubmitBytes bounds a submission body. The whole preset catalogue
// declared inline is under 10 KiB, so the limit leaves ample room
// for real grids while refusing a body that would otherwise be decoded
// into memory without bound.
const maxSubmitBytes = 1 << 20

// Grid caps: resolve refuses a submission over any of them with a
// 400 before anything runs. The per-scenario caps sit well above the
// largest bundled preset (fleet-100k's 100,000 nodes; 280 windows on
// the seven-epoch lifetime presets, counting every epoch); the total
// bounds the work one request can queue, and fits fleet-100k at five
// seeds (3M node-windows each).
const (
	maxNodes       = 100_000
	maxWindows     = 10_000
	maxSeeds       = 64
	maxNodeWindows = 16_000_000
)

// decodeSubmit reads one submission, refusing fields SubmitRequest
// does not declare — a misspelled knob is an error, not a default.
func decodeSubmit(r io.Reader) (SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return SubmitRequest{}, fmt.Errorf("campaignd: decoding submission: %w", err)
	}
	return req, nil
}

// resolve turns the submission into the concrete scenario grid,
// rejecting malformed requests with errors suitable for a 400.
func (r SubmitRequest) resolve() ([]scenario.Scenario, error) {
	var scens []scenario.Scenario
	for _, name := range r.Presets {
		name = strings.TrimSpace(name)
		if name == "all" {
			for _, s := range scenario.Presets() {
				scens = append(scens, s)
			}
			continue
		}
		s, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		scens = append(scens, s)
	}
	if r.Nodes > 0 || r.Windows > 0 {
		for i, s := range scens {
			scens[i] = s.Scale(r.Nodes, r.Windows)
		}
	}
	scens = append(scens, r.Scenarios...)
	if len(scens) == 0 {
		return nil, fmt.Errorf("campaignd: submission names no scenarios (set presets or scenarios)")
	}
	if len(r.Seeds) == 0 {
		return nil, fmt.Errorf("campaignd: submission has no seeds")
	}
	if len(r.Seeds) > maxSeeds {
		return nil, fmt.Errorf("campaignd: submission has %d seeds, over the cap of %d", len(r.Seeds), maxSeeds)
	}
	if r.Shards < 0 {
		return nil, fmt.Errorf("campaignd: negative shards (%d)", r.Shards)
	}
	nodeWindows := 0
	for i, s := range scens {
		if r.Shards > 0 {
			scens[i].Shards = r.Shards
		}
		if err := scens[i].Validate(); err != nil {
			return nil, err
		}
		if s.Nodes > maxNodes {
			return nil, fmt.Errorf("campaignd: scenario %q has %d nodes, over the cap of %d", s.Name, s.Nodes, maxNodes)
		}
		// Bounding both factors first keeps the product from overflowing.
		if s.Windows > maxWindows || s.Lifetime.Epochs > maxWindows || s.TotalWindows() > maxWindows {
			return nil, fmt.Errorf("campaignd: scenario %q has %d windows over %d epochs, over the cap of %d windows",
				s.Name, s.Windows, max(s.Lifetime.Epochs, 1), maxWindows)
		}
		nodeWindows += s.Nodes * s.TotalWindows() * len(r.Seeds)
		if nodeWindows > maxNodeWindows {
			return nil, fmt.Errorf("campaignd: submission asks for %d or more node-windows, over the cap of %d", nodeWindows, maxNodeWindows)
		}
	}
	return scens, nil
}

// event is one NDJSON line of the submit stream. Type is "run" (first
// line: the run's identity and grid size), "cell" (one finished cell,
// completion order), or "done" (last line: final status, campaign
// fingerprint, store traffic).
type event struct {
	Type string `json:"type"`

	// run
	RunID string `json:"run_id,omitempty"`
	Cells int    `json:"cells,omitempty"`

	// cell
	GridIndex int    `json:"grid_index,omitempty"`
	Scenario  string `json:"scenario,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// Cached marks a cell served from the result store.
	Cached            bool         `json:"cached,omitempty"`
	FingerprintSHA256 string       `json:"fingerprint_sha256,omitempty"`
	Err               string       `json:"error,omitempty"`
	Summary           *cellSummary `json:"summary,omitempty"`

	// done
	Status        string             `json:"status,omitempty"`
	CachedCells   int                `json:"cached_cells,omitempty"`
	CanceledCells int                `json:"canceled_cells,omitempty"`
	Store         *resultstore.Stats `json:"store,omitempty"`
}

// cellSummary is the per-cell stream excerpt: the headline metrics,
// not the full fleet summary (fetch the cell record for that).
type cellSummary struct {
	MeanAvailability float64 `json:"mean_availability"`
	EnergyKWh        float64 `json:"energy_kwh"`
	Crashes          int     `json:"crashes"`
}

// Handler returns the service's HTTP API:
//
//	POST /api/v1/campaigns    submit a campaign; streams NDJSON events
//	GET  /api/v1/runs         list run manifests
//	GET  /api/v1/runs/{id}    one run manifest (report included when complete)
//	GET  /api/v1/cells/{key}  one stored cell record
//	GET  /api/v1/store        store stats and cell count
//	GET  /healthz             liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/runs", s.handleRuns)
	mux.HandleFunc("GET /api/v1/runs/{id}", s.handleRun)
	mux.HandleFunc("GET /api/v1/cells/{key}", s.handleCell)
	mux.HandleFunc("GET /api/v1/store", s.handleStore)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// handleSubmit validates the submission, then runs it while streaming
// NDJSON events. A body over maxSubmitBytes is refused with a 413. The campaign runs under the SERVER's context, not the
// request's: a client that disconnects mid-stream abandons its view,
// not the run — cells keep landing in the store and the manifest
// completes. Only server shutdown interrupts execution.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		code := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, err)
		return
	}
	scens, err := req.resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	p, err := s.plan(scens, req.Seeds, req.FleetWorkers, req.Parallel)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev event) {
		// Stream errors are ignored: the run outlives the client.
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}

	emit(event{Type: "run", RunID: p.runID, Cells: len(p.cellKeys)})
	rep, err := s.launch(p, func(gi int, res scenario.Result) {
		emit(event{
			Type: "cell", GridIndex: gi,
			Scenario: res.Scenario, Seed: res.Seed,
			Cached: res.Cached, FingerprintSHA256: res.FingerprintSHA256, Err: res.Err,
			Summary: &cellSummary{
				MeanAvailability: res.Summary.MeanAvailability,
				EnergyKWh:        res.Summary.EnergyKWh,
				Crashes:          res.Summary.Crashes,
			},
		})
	})
	done := event{
		Type: "done", RunID: p.runID,
		CachedCells: rep.CachedCells, CanceledCells: rep.CanceledCells,
	}
	stats := s.store.Stats()
	done.Store = &stats
	switch {
	case err == errAlreadyRunning:
		done.Status = "already-running"
		done.Err = err.Error()
	case err != nil:
		done.Status = "interrupted"
		if s.ctx.Err() == nil {
			done.Status = "failed"
		}
		done.Err = err.Error()
		done.FingerprintSHA256 = rep.FingerprintSHA256
	default:
		done.Status = "complete"
		done.FingerprintSHA256 = rep.FingerprintSHA256
	}
	emit(done)
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	runs, err := s.store.ListRuns()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	// The listing elides the per-cell reports — fetch a run by ID for
	// its full report.
	type runRow struct {
		ID                string `json:"id"`
		Status            string `json:"status"`
		Cells             int    `json:"cells"`
		CachedCells       int    `json:"cached_cells,omitempty"`
		FingerprintSHA256 string `json:"fingerprint_sha256,omitempty"`
		Error             string `json:"error,omitempty"`
	}
	rows := make([]runRow, 0, len(runs))
	for _, m := range runs {
		rows = append(rows, runRow{
			ID: m.ID, Status: m.Status, Cells: len(m.CellKeys),
			CachedCells: m.CachedCells, FingerprintSHA256: m.FingerprintSHA256, Error: m.Error,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rows)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	m, ok := s.store.GetRun(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("campaignd: unknown run %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(m)
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.store.GetCell(r.PathValue("key"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("campaignd: no cell %q", r.PathValue("key")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rec)
}

func (s *Server) handleStore(w http.ResponseWriter, _ *http.Request) {
	n, err := s.store.CellCount()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Dir   string            `json:"dir"`
		Cells int               `json:"cells"`
		Stats resultstore.Stats `json:"stats"`
	}{s.store.Dir(), n, s.store.Stats()})
}
