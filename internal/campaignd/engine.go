// Package campaignd is the long-running campaign service behind
// `uniserver serve`: an HTTP API that accepts campaign submissions
// (scenario presets or inline specs, plus seeds and execution knobs),
// runs them on scenario.RunCampaign over a bounded worker pool shared
// across concurrent submissions, streams per-cell results to the
// client as NDJSON, and persists every completed cell into a
// content-addressed resultstore.Store.
//
// Persistence is the crash story: cells land in the store the moment
// they finish (atomic writes at cell boundaries), characterization
// snapshots spill into the store's charact directory
// (fleet.CharactCache.AttachDir, core.Snapshot under the hood), and a
// run's manifest stays "running" until its campaign completes. A
// killed server therefore resumes incomplete runs on the next start:
// completed cells are served from the store byte-identically (the
// determinism contract makes stored and re-run bytes equal), and only
// the missing cells execute.
package campaignd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"uniserver/internal/resultstore"
	"uniserver/internal/scenario"
)

// Options configure a Server.
type Options struct {
	// Store is the persistent result store (required).
	Store *resultstore.Store
	// Pool bounds the number of campaign cells executing at once
	// across ALL submissions; <= 0 means GOMAXPROCS. Cells from
	// concurrent submissions interleave fairly on the shared pool;
	// results are unaffected (the pool is an execution knob).
	Pool int
	// FleetWorkers is the default per-cell fleet worker count for
	// submissions that do not set one; <= 0 means 1.
	FleetWorkers int
}

// Server executes campaign runs against one store. It serves HTTP via
// Handler, but the engine itself is plain Go — tests drive it
// directly, and resumption runs in the background with no client.
type Server struct {
	store *resultstore.Store
	sem   chan struct{}
	opts  Options

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	active map[string]bool // run IDs currently executing in this process

	// resumeFailures counts the runs ResumeIncomplete relaunched whose
	// execution failed for a reason other than a duplicate or the
	// server's shutdown.
	resumeFailures atomic.Uint64

	// testCellDone, when set (tests only), observes every finished
	// cell after it is persisted and streamed — the hook the
	// crash-resume test uses to kill the engine at a precise cell
	// boundary.
	testCellDone func(runID string, gridIndex int, res scenario.Result)
}

// New builds a Server over the store. Call Close to stop it: running
// campaigns halt at the next cell boundary with their manifests left
// "running", which is exactly the on-disk state ResumeIncomplete picks
// up after a restart.
func New(opts Options) *Server {
	pool := opts.Pool
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		store:  opts.Store,
		sem:    make(chan struct{}, pool),
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		active: make(map[string]bool),
	}
}

// storeStats is the result store's counters as the service reports
// them — GET /api/v1/store and a submission's done event — with the
// resumed runs whose execution failed. The counters describe this
// process's traffic, never a run's results.
type storeStats struct {
	resultstore.Stats
	ResumeFailures uint64 `json:"resume_failures,omitempty"`
}

func (s *Server) stats() storeStats {
	return storeStats{s.store.Stats(), s.resumeFailures.Load()}
}

// Store returns the server's result store.
func (s *Server) Store() *resultstore.Store { return s.store }

// Shutdown cancels running campaigns at their next cell boundary
// without waiting — the signal-handler half of Close. Completed cells
// are already persisted; interrupted manifests stay "running".
func (s *Server) Shutdown() { s.cancel() }

// Close stops the server: running campaigns are canceled at cell
// boundaries (completed cells are already persisted) and Close blocks
// until they have checkpointed. Manifests of interrupted runs stay
// "running" on disk — the resume signal.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// planned is a resolved, identity-stamped campaign: the grid, its
// content-addressed cell keys, and the run ID they derive.
type planned struct {
	scenarios    []scenario.Scenario
	seeds        []uint64
	fleetWorkers int
	parallel     int
	cellKeys     []string
	runID        string
}

// plan resolves a grid into its content addresses and run identity.
func (s *Server) plan(scens []scenario.Scenario, seeds []uint64, fleetWorkers, parallel int) (planned, error) {
	if len(scens) == 0 {
		return planned{}, fmt.Errorf("campaignd: no scenarios")
	}
	if len(seeds) == 0 {
		return planned{}, fmt.Errorf("campaignd: no seeds")
	}
	if fleetWorkers <= 0 {
		fleetWorkers = s.opts.FleetWorkers
	}
	keys := make([]string, 0, len(scens)*len(seeds))
	for _, sc := range scens {
		if err := sc.Validate(); err != nil {
			return planned{}, err
		}
		for _, seed := range seeds {
			key, _, err := resultstore.CellKey(sc, seed)
			if err != nil {
				return planned{}, err
			}
			keys = append(keys, key)
		}
	}
	return planned{
		scenarios:    scens,
		seeds:        seeds,
		fleetWorkers: fleetWorkers,
		parallel:     parallel,
		cellKeys:     keys,
		runID:        resultstore.RunID(keys),
	}, nil
}

// manifest renders the planned run's on-disk manifest at the given
// status.
func (p planned) manifest(status string) resultstore.RunManifest {
	return resultstore.RunManifest{
		ID:           p.runID,
		Status:       status,
		Scenarios:    p.scenarios,
		Seeds:        p.seeds,
		FleetWorkers: p.fleetWorkers,
		Parallel:     p.parallel,
		CellKeys:     p.cellKeys,
	}
}

// tryActivate marks the run in-flight in this process; false means it
// already is (a duplicate concurrent submission attaches to nothing
// and is told so).
func (s *Server) tryActivate(runID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active[runID] {
		return false
	}
	s.active[runID] = true
	return true
}

func (s *Server) deactivate(runID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.active, runID)
}

// execute runs a planned campaign to completion (or to the server's
// cancellation), persisting cells as they finish and reporting each
// through emit (nil for background runs). It owns the manifest
// lifecycle: running → complete/failed, or left running when the
// server shut down mid-campaign (the resume signal). The returned
// report is partial when interrupted.
func (s *Server) execute(p planned, emit func(gridIndex int, res scenario.Result)) (scenario.Report, error) {
	if err := s.store.PutRun(p.manifest(resultstore.RunRunning)); err != nil {
		return scenario.Report{}, err
	}

	var emitMu sync.Mutex
	camp := scenario.Campaign{
		Scenarios:    p.scenarios,
		Seeds:        p.seeds,
		FleetWorkers: p.fleetWorkers,
		Parallel:     p.parallel,
		CharactDir:   s.store.CharactDir(),
		Context:      s.ctx,
		Gate: func(run func()) {
			// The shared pool: one slot per executing cell, across every
			// concurrent submission. Declining on shutdown (instead of
			// blocking for a slot) is what lets Close return promptly —
			// the declined cell is marked canceled and resumes later.
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
				run()
			case <-s.ctx.Done():
			}
		},
		Lookup: func(sc scenario.Scenario, seed uint64) (scenario.Result, bool) {
			key, _, err := resultstore.CellKey(sc, seed)
			if err != nil {
				return scenario.Result{}, false
			}
			rec, ok := s.store.GetCell(key)
			if !ok {
				return scenario.Result{}, false
			}
			return scenario.Result{
				Scenario:          rec.Scenario,
				Seed:              rec.Seed,
				Fingerprint:       rec.Fingerprint,
				FingerprintSHA256: rec.FingerprintSHA256,
				Summary:           rec.Summary,
			}, true
		},
		OnCell: func(gi int, res scenario.Result) {
			if res.Err == "" && !res.Cached {
				sc := p.scenarios[gi/len(p.seeds)]
				seed := p.seeds[gi%len(p.seeds)]
				key, canonical, err := resultstore.CellKey(sc, seed)
				if err == nil {
					// Best effort: a failed put costs a re-run after a
					// crash, never correctness. The store counts it in
					// Stats().PutFailures, which GET /api/v1/store and
					// the done event report.
					_ = s.store.PutCell(resultstore.CellRecord{
						Key:               key,
						Scenario:          res.Scenario,
						Seed:              res.Seed,
						Request:           canonical,
						Fingerprint:       res.Fingerprint,
						FingerprintSHA256: res.FingerprintSHA256,
						Summary:           res.Summary,
					})
				}
			}
			if emit != nil {
				emitMu.Lock()
				emit(gi, res)
				emitMu.Unlock()
			}
			if s.testCellDone != nil {
				s.testCellDone(p.runID, gi, res)
			}
		},
	}

	rep, err := scenario.RunCampaign(camp)
	switch {
	case s.ctx.Err() != nil || errors.Is(err, context.Canceled):
		// Interrupted: the manifest stays "running" on disk — completed
		// cells are persisted, and the next start (or the next identical
		// submission) resumes from them.
		return rep, fmt.Errorf("campaignd: run %s interrupted (%d of %d cells complete; will resume): %w",
			p.runID, len(p.cellKeys)-rep.CanceledCells, len(p.cellKeys), context.Canceled)
	case err != nil:
		m := p.manifest(resultstore.RunFailed)
		m.Error = err.Error()
		m.Report = &rep
		m.CachedCells = rep.CachedCells
		if perr := s.store.PutRun(m); perr != nil {
			return rep, perr
		}
		return rep, err
	default:
		m := p.manifest(resultstore.RunComplete)
		m.FingerprintSHA256 = rep.FingerprintSHA256
		m.CachedCells = rep.CachedCells
		m.Report = &rep
		if perr := s.store.PutRun(m); perr != nil {
			return rep, perr
		}
		return rep, nil
	}
}

// launch runs a planned campaign, refusing duplicates of a run already
// executing in this process. Used by both the HTTP submit path (with
// an emit) and background resumption (emit nil).
func (s *Server) launch(p planned, emit func(int, scenario.Result)) (scenario.Report, error) {
	if !s.tryActivate(p.runID) {
		return scenario.Report{}, errAlreadyRunning
	}
	defer s.deactivate(p.runID)
	s.wg.Add(1)
	defer s.wg.Done()
	return s.execute(p, emit)
}

var errAlreadyRunning = errors.New("campaignd: run already executing")

// Submit plans and synchronously runs a campaign against the store —
// the same path HTTP submissions take, exposed for the CLI's
// -result-store mode so one-shot runs and serve mode are literally the
// same code. Returns the content-derived run ID alongside the report;
// on interruption the report is partial and the error wraps
// context.Canceled.
func (s *Server) Submit(scens []scenario.Scenario, seeds []uint64, fleetWorkers, parallel int, onCell func(gridIndex int, res scenario.Result)) (string, scenario.Report, error) {
	p, err := s.plan(scens, seeds, fleetWorkers, parallel)
	if err != nil {
		return "", scenario.Report{}, err
	}
	rep, err := s.launch(p, onCell)
	return p.runID, rep, err
}

// ResumeIncomplete scans the store for runs whose manifests are still
// "running" — the fossil of a crash or shutdown — and relaunches them
// in the background. Completed cells are served from the store; only
// missing cells execute. Returns the number of runs relaunched.
func (s *Server) ResumeIncomplete() (int, error) {
	runs, err := s.store.ListRuns()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, m := range runs {
		if m.Status != resultstore.RunRunning {
			continue
		}
		p, err := s.plan(m.Scenarios, m.Seeds, m.FleetWorkers, m.Parallel)
		if err != nil {
			// A manifest this build cannot re-plan (e.g. a declaration
			// its validator now rejects) is marked failed rather than
			// retried forever.
			m.Status = resultstore.RunFailed
			m.Error = "resume: " + err.Error()
			if perr := s.store.PutRun(m); perr != nil {
				return n, perr
			}
			continue
		}
		n++
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// launch/execute manage their own wg add; this outer guard
			// keeps Close honest about the goroutine itself. No caller
			// waits on a resumed run, so its failure is counted where
			// the store's put failures are reported (stats).
			_, err := s.launch(p, nil)
			if err != nil && err != errAlreadyRunning && !errors.Is(err, context.Canceled) {
				s.resumeFailures.Add(1)
			}
		}()
	}
	return n, nil
}
