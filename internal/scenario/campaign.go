package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"uniserver/internal/fleet"
)

// Result is one grid cell of a campaign: a single (scenario, seed)
// fleet run. Fingerprint is the full multi-line fleet fingerprint
// (kept out of the JSON report for size); FingerprintSHA256 is its
// hash, which is what cross-run comparisons and the CLI print.
type Result struct {
	Scenario          string        `json:"scenario"`
	Seed              uint64        `json:"seed"`
	Fingerprint       string        `json:"-"`
	FingerprintSHA256 string        `json:"fingerprint_sha256,omitempty"`
	Summary           fleet.Summary `json:"summary"`
	Err               string        `json:"error,omitempty"`
	// Cached marks a cell served by Campaign.Lookup (typically a
	// persistent result store) instead of executed: the fleet never
	// ran, the bytes came from a prior identical run.
	Cached bool `json:"cached,omitempty"`
}

// CellCanceled is the Result.Err of cells a canceled Campaign.Context
// prevented from running. Canceled cells never executed — rerunning
// the campaign (against the same result store) picks them up.
const CellCanceled = "canceled"

// ScenarioReport aggregates one scenario's row of the grid across all
// seeds: the comparative metrics the campaign exists to surface, plus
// a hash over the per-seed fingerprints so an entire scenario row can
// be compared across hosts or worker counts with one string.
type ScenarioReport struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description"`
	Runs        int    `json:"runs"`
	Failed      int    `json:"failed"`

	// Means across successful seeds.
	MeanAvailability float64 `json:"mean_availability"`
	EnergyKWh        float64 `json:"energy_kwh"`
	EnergySavedWh    float64 `json:"energy_saved_wh"`
	EOPFraction      float64 `json:"eop_fraction"`
	MeanCPUTempC     float64 `json:"mean_cpu_temp_c"`
	// MeanFinalAgeShiftMV is the fleet-mean accumulated aging drift at
	// end of life — the margin-trajectory headline lifetime scenarios
	// exist to surface (zero for single-epoch scenarios, whose runs
	// are too short for visible drift).
	MeanFinalAgeShiftMV float64 `json:"mean_final_age_shift_mv,omitempty"`

	// Totals across successful seeds.
	Crashes              int `json:"crashes"`
	Migrations           int `json:"migrations"`
	SLAViolations        int `json:"sla_violations"`
	UserFacingViolations int `json:"user_facing_violations"`
	Scheduled            int `json:"scheduled"`
	Rejected             int `json:"rejected"`
	// Recharacterized totals the StressLog campaigns run mid-life —
	// scheduled (cadence), threshold- and crash-triggered alike.
	Recharacterized int `json:"recharacterized"`
	// Adaptive-policy counters (omitted when no policy is armed): the
	// drift gate's run/skip decisions on scheduled campaigns and the
	// ECC closed loop's undervolt steps and backoffs.
	RecharTriggered  int `json:"rechar_triggered,omitempty"`
	RecharSuppressed int `json:"rechar_suppressed,omitempty"`
	UndervoltSteps   int `json:"undervolt_steps,omitempty"`
	ECCBackoffs      int `json:"ecc_backoffs,omitempty"`

	FingerprintSHA256 string `json:"fingerprint_sha256"`
}

// Report is the machine-readable campaign outcome: every grid cell in
// scenario-major, seed-minor order, the per-scenario aggregates, a
// campaign-level fingerprint hash over the whole grid, and the
// execution self-description (parallelism and snapshot-cache traffic)
// that makes a perf run interpretable without rerunning it. The
// execution fields never feed the fingerprint: they describe how the
// grid was computed, not what it computed.
type Report struct {
	Seeds             []uint64         `json:"seeds"`
	Results           []Result         `json:"results"`
	Scenarios         []ScenarioReport `json:"scenarios"`
	FingerprintSHA256 string           `json:"fingerprint_sha256"`

	// EffectiveParallel is the concurrent-cell fan-out RunCampaign
	// actually used (Campaign.EffectiveParallel at run time).
	EffectiveParallel int `json:"effective_parallel"`
	// CharactCacheHits / CharactCacheMisses count the campaign-wide
	// characterization snapshot cache's traffic: misses are full
	// characterizations run, hits are nodes served by restoring a
	// snapshot. Both are zero when the cache is disabled.
	// CharactDiskHits counts first consumers served from the attached
	// spill directory (Campaign.CharactDir) instead of characterizing.
	// CharactDiskErr carries the first best-effort spill failure, if
	// any: results are unaffected, but the directory did not
	// accumulate and the next run will re-characterize.
	// CharactCoalesced counts hits that arrived while their key's one
	// characterization was still in flight and waited on it instead of
	// duplicating it — contention telemetry (timing-dependent, unlike
	// hits/misses, which are deterministic in the grid).
	// CharactCompiled counts snapshots published — one per
	// characterized entry (fresh or disk-served); every cache hit after
	// that is a stamp from one.
	CharactCacheHits   uint64 `json:"charact_cache_hits"`
	CharactCacheMisses uint64 `json:"charact_cache_misses"`
	CharactCoalesced   uint64 `json:"charact_coalesced,omitempty"`
	CharactDiskHits    uint64 `json:"charact_disk_hits,omitempty"`
	CharactCompiled    uint64 `json:"charact_compiled,omitempty"`
	CharactDiskErr     string `json:"charact_disk_err,omitempty"`

	// CachedCells counts cells served by Campaign.Lookup (a result
	// store) instead of executed; CanceledCells counts cells a
	// canceled Campaign.Context prevented from running. Both zero on a
	// plain uninterrupted in-process campaign.
	CachedCells   int `json:"cached_cells,omitempty"`
	CanceledCells int `json:"canceled_cells,omitempty"`
}

// WriteJSON renders the report, indented, to w.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// sha256Hex hashes a fingerprint string for compact comparison.
func sha256Hex(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// runScenarioWith executes one scenario at one seed on the given fleet
// worker count against a snapshot cache and returns its result; campaigns
// pass their shared cache here. Worker count never changes the
// fingerprint, only the wall-clock. Every node goes through the cache's
// snapshot→stamp path, even when nothing is reused, which is what lets
// the preset golden tests pin that path byte for byte. The cell's keys
// are queued (CharactCache.Plan) before it runs.
func runScenarioWith(s Scenario, seed uint64, workers int, cache *fleet.CharactCache) (Result, error) {
	cfg, err := s.FleetConfig(seed)
	if err != nil {
		return Result{Scenario: s.Name, Seed: seed, Err: err.Error()}, err
	}
	cfg.Workers = workers
	cfg.Charact = cache
	cache.Plan(cfg)
	sum, err := fleet.Run(cfg)
	if err != nil {
		return Result{Scenario: s.Name, Seed: seed, Err: err.Error()}, err
	}
	fp := sum.Fingerprint()
	return Result{
		Scenario:          s.Name,
		Seed:              seed,
		Fingerprint:       fp,
		FingerprintSHA256: sha256Hex(fp),
		Summary:           sum,
	}, nil
}

// Campaign is a scenario×seed sweep.
type Campaign struct {
	Scenarios []Scenario
	Seeds     []uint64
	// FleetWorkers is the worker count inside each fleet.Run; <= 0
	// means 1 (run-level parallelism usually saturates the host, and
	// nested pools only add scheduling noise to wall-clock, never to
	// results).
	FleetWorkers int
	// Parallel bounds how many grid cells run concurrently; <= 0
	// means GOMAXPROCS.
	Parallel int
	// CharactDir, when set, spills characterized snapshots to this
	// versioned directory and serves later processes from it — CLI
	// reruns and CI legs share characterizations across processes,
	// byte-identically. Attaching refuses a directory stamped by a
	// different snapshot-format version.
	CharactDir string

	// Context, when non-nil, cancels the campaign at cell boundaries:
	// in-flight cells run to completion (their results are whole and,
	// with a store attached, persisted), unstarted cells are marked
	// CellCanceled, and RunCampaign returns a partial Report together
	// with an error wrapping context.Canceled. Nil means run to
	// completion.
	Context context.Context
	// Lookup, when set, is consulted before a cell executes. Returning
	// ok serves the cell from the returned Result (marked Cached)
	// without running the fleet — how a persistent result store makes
	// completed cells free on resume. It is called from worker
	// goroutines and must be safe for concurrent use. The determinism
	// contract makes this sound: a stored result for the same
	// (scenario, seed) is byte-identical to what the run would produce.
	Lookup func(s Scenario, seed uint64) (Result, bool)
	// OnCell, when set, receives every executed or Lookup-served cell
	// the moment it finishes — completion order, not grid order, and
	// from worker goroutines, so it must be safe for concurrent use.
	// Canceled cells are not reported. gridIndex is the cell's
	// scenario-major, seed-minor grid position.
	OnCell func(gridIndex int, res Result)
	// Gate, when set, wraps each cell's execution (Lookup included)
	// and each characterization a slot out of cells runs for cells
	// still in flight — the hook a long-running service uses to share
	// one bounded worker pool across concurrent campaigns. A Gate that
	// returns without invoking run (e.g. because the service is
	// shutting down) marks the cell CellCanceled, or ends the slot's
	// draining.
	Gate func(run func())
}

// EffectiveParallel resolves the concurrent-cell count RunCampaign
// will use: non-positive Parallel means GOMAXPROCS, and never more
// workers than grid cells. Exposed so CLIs can report the actual
// fan-out instead of re-deriving (and drifting from) this policy.
func (c Campaign) EffectiveParallel() int {
	parallel := c.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if cells := len(c.Scenarios) * len(c.Seeds); parallel > cells {
		parallel = cells
	}
	return parallel
}

// SmokeCampaign returns the fast all-presets sanity grid used by CI
// and the -campaign smoke CLI verb: every bundled preset scaled down
// to `nodes` nodes (<= 0 means 4) and a short horizon, one seed.
func SmokeCampaign(nodes int) Campaign {
	if nodes <= 0 {
		nodes = 4
	}
	presets := Presets()
	scaled := make([]Scenario, len(presets))
	for i, s := range presets {
		scaled[i] = s.Scale(nodes, 16)
	}
	return Campaign{Scenarios: scaled, Seeds: []uint64{1}}
}

// RunCampaign fans the scenario×seed grid out across Parallel
// goroutines (each cell is an independent fleet.Run) and merges the
// results in grid order — scenario-major, seed-minor — so the Report
// is deterministic regardless of completion order. The returned error
// is the first failure in grid order; the Report still carries every
// cell, including failed ones.
func RunCampaign(c Campaign) (Report, error) {
	if len(c.Scenarios) == 0 {
		return Report{}, fmt.Errorf("scenario: campaign has no scenarios")
	}
	if len(c.Seeds) == 0 {
		return Report{}, fmt.Errorf("scenario: campaign has no seeds")
	}
	for _, s := range c.Scenarios {
		if err := s.Validate(); err != nil {
			return Report{}, err
		}
	}
	workers := c.FleetWorkers
	if workers <= 0 {
		workers = 1
	}
	parallel := c.EffectiveParallel()
	type cell struct{ si, ki int }
	grid := make([]cell, 0, len(c.Scenarios)*len(c.Seeds))
	for si := range c.Scenarios {
		for ki := range c.Seeds {
			grid = append(grid, cell{si, ki})
		}
	}

	// One snapshot cache spans the whole grid: cells sharing a seed
	// share their node characterizations across scenarios, which is
	// where the campaign's dominant cost used to be. The cache runs
	// each (seed, node spec) pair once and stamps nodes from its
	// snapshot everywhere else, with byte-identical results (pinned by
	// the preset golden tests). It is concurrency-safe, so cells racing
	// on the same key serialize on one characterization instead of
	// duplicating it. Each claimed cell plans its keys, so a slot that
	// would wait on another cell's in-flight key characterizes a
	// planned one instead, and a slot out of cells drains the plan.
	cache := fleet.NewCharactCache()
	if c.CharactDir != "" {
		if err := cache.AttachDir(c.CharactDir); err != nil {
			return Report{}, err
		}
	}

	// Fan out: workers pull grid cells off a shared atomic cursor the
	// moment they free up — no producer goroutine feeding them in grid
	// order, so an expensive early cell never stalls the handout of
	// later ones. Each worker writes only the slots it claimed; results
	// land in grid order whatever the completion order.
	results := make([]Result, len(grid))
	runCell := func(gi int) {
		g := grid[gi]
		s, seed := c.Scenarios[g.si], c.Seeds[g.ki]
		if c.Lookup != nil {
			if res, ok := c.Lookup(s, seed); ok {
				res.Scenario, res.Seed = s.Name, seed
				res.Cached = true
				if res.FingerprintSHA256 == "" && res.Fingerprint != "" {
					res.FingerprintSHA256 = sha256Hex(res.Fingerprint)
				}
				results[gi] = res
				return
			}
		}
		res, _ := runScenarioWith(s, seed, workers, cache)
		results[gi] = res
	}
	gate := c.Gate
	if gate == nil {
		gate = func(run func()) { run() }
	}
	canceled := func() bool { return c.Context != nil && c.Context.Err() != nil }
	// drain characterizes planned keys other slots' cells still need,
	// one key per pass through the Gate, so the pool bound holds for
	// drains too; a Gate that declines ends it.
	drain := func() {
		for cache.Pending() && !canceled() {
			helped := false
			gate(func() { helped = cache.Help() })
			if !helped {
				return
			}
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parallel; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer drain()
			for {
				gi := int(next.Add(1)) - 1
				if gi >= len(grid) {
					return
				}
				g := grid[gi]
				// Cancellation lands at cell boundaries only: a claimed
				// cell either runs whole or not at all, so every stored
				// result is a complete, fingerprinted cell.
				if canceled() {
					results[gi] = Result{Scenario: c.Scenarios[g.si].Name, Seed: c.Seeds[g.ki], Err: CellCanceled}
					continue
				}
				gate(func() { runCell(gi) })
				if results[gi].Scenario == "" && results[gi].Err == "" {
					// The Gate declined to run the cell (shutdown race).
					results[gi] = Result{Scenario: c.Scenarios[g.si].Name, Seed: c.Seeds[g.ki], Err: CellCanceled}
				}
				if c.OnCell != nil && results[gi].Err != CellCanceled {
					c.OnCell(gi, results[gi])
				}
			}
		}()
	}
	wg.Wait()

	// Merge in grid order.
	rep := Report{
		Seeds:             append([]uint64(nil), c.Seeds...),
		Results:           results,
		EffectiveParallel: parallel,
	}
	st := cache.Stats()
	rep.CharactCacheHits, rep.CharactCacheMisses = st.Hits, st.Misses
	rep.CharactCoalesced = st.Coalesced
	rep.CharactDiskHits = st.DiskHits
	rep.CharactCompiled = st.Compiled
	if err := cache.DiskErr(); err != nil {
		rep.CharactDiskErr = err.Error()
	}
	var firstErr error
	allFPs := ""
	for si, s := range c.Scenarios {
		sr := ScenarioReport{Scenario: s.Name, Description: s.Description}
		rowFPs := ""
		for ki := range c.Seeds {
			res := results[si*len(c.Seeds)+ki]
			sr.Runs++
			if res.Err != "" {
				sr.Failed++
				if res.Err == CellCanceled {
					rep.CanceledCells++
				}
				if firstErr == nil {
					if res.Err == CellCanceled {
						firstErr = fmt.Errorf("scenario %s seed %d: %w", res.Scenario, res.Seed, context.Canceled)
					} else {
						firstErr = fmt.Errorf("scenario %s seed %d: %s", res.Scenario, res.Seed, res.Err)
					}
				}
				continue
			}
			if res.Cached {
				rep.CachedCells++
			}
			rowFPs += res.Fingerprint
			sum := res.Summary
			sr.MeanAvailability += sum.MeanAvailability
			sr.EnergyKWh += sum.EnergyKWh
			sr.EnergySavedWh += sum.EnergySavedWh
			sr.MeanCPUTempC += sum.MeanCPUTempC
			if sum.Nodes*sum.Windows > 0 {
				sr.EOPFraction += float64(sum.WindowsAtEOP) / float64(sum.Nodes*sum.Windows)
			}
			sr.Crashes += sum.Crashes
			sr.Migrations += sum.Migrations
			sr.SLAViolations += sum.SLAViolations
			sr.UserFacingViolations += sum.UserFacingViolations
			sr.Scheduled += sum.Scheduled
			sr.Rejected += sum.Rejected
			sr.Recharacterized += sum.Recharacterized
			sr.RecharTriggered += sum.RecharTriggered
			sr.RecharSuppressed += sum.RecharSuppressed
			sr.UndervoltSteps += sum.UndervoltSteps
			sr.ECCBackoffs += sum.ECCBackoffs
			if len(sum.PerNode) > 0 {
				nodeAge := 0.0
				for _, n := range sum.PerNode {
					nodeAge += n.FinalAgeShiftMV
				}
				sr.MeanFinalAgeShiftMV += nodeAge / float64(len(sum.PerNode))
			}
		}
		if ok := sr.Runs - sr.Failed; ok > 0 {
			sr.MeanAvailability /= float64(ok)
			sr.EnergyKWh /= float64(ok)
			sr.EnergySavedWh /= float64(ok)
			sr.EOPFraction /= float64(ok)
			sr.MeanCPUTempC /= float64(ok)
			sr.MeanFinalAgeShiftMV /= float64(ok)
		}
		sr.FingerprintSHA256 = sha256Hex(rowFPs)
		allFPs += rowFPs
		rep.Scenarios = append(rep.Scenarios, sr)
	}
	rep.FingerprintSHA256 = sha256Hex(allFPs)
	return rep, firstErr
}
