package main

import (
	"fmt"
	"strings"
	"time"

	"uniserver/internal/fleet"
	"uniserver/internal/scenario"
)

// workloadNames lists the workloads in the order a full run measures
// them; BENCHMARK.json records why each was chosen.
var workloadNames = []string{"population", "campaign", "lifetime", "service"}

// goldens are the seed-1 fingerprints at full size. population is what
// `uniserver -scenario fleet-100k -nodes 10000` prints; campaign is
// the grid BenchmarkCampaign pins; lifetime is what `uniserver
// -campaign recharact-1mo,recharact-3mo,recharact-6mo,drift-cadence
// -nodes 8 -seeds 2` prints; service was recorded when this benchmark
// was written.
var goldens = map[string]string{
	"population": "cd0e041a714540c434998f5e5eb2abe5556805c99b6b79589d1af0694069e2bc",
	"campaign":   "4768b42dbb52c1578c203da357462c81840278c9c6b8e4aaf1046ceda9d8b592",
	"lifetime":   "44fd472e0c1a7272cbd5466140291174749b33dda847351e8b4035e5c9aaf42f",
	"service":    "98c6f0917866ad4723f36243c71659e5335f91431c2ba1be72c538273f6b8d63",
}

// sizes shapes the workloads; smoke sizes keep the smoke test fast.
type sizes struct {
	popNodes, popWindows   int
	campNodes, campWindows int
	lifeNodes, lifeWindows int // lifeWindows 0 keeps the presets' 40 per epoch
	svcNodes, svcWindows   int
	probeCells             int // service cells re-run with node hooks in the traced run
	probeScale             int // divides the probes' loop counts
}

var (
	fullSizes = sizes{
		popNodes: 10_000, popWindows: 30,
		campNodes: 4, campWindows: 16,
		lifeNodes: 8,
		svcNodes:  4, svcWindows: 16,
		probeCells: 8, probeScale: 1,
	}
	smokeSizes = sizes{
		popNodes: 40, popWindows: 3,
		campNodes: 2, campWindows: 3,
		lifeNodes: 2, lifeWindows: 3,
		svcNodes: 2, svcWindows: 3,
		probeCells: 2, probeScale: 200,
	}
)

// classicPresets is BenchmarkCampaign's grid, pinned by name.
var classicPresets = []string{"baseline", "diurnal-burst", "droop-attack", "hetero-bins", "mode-churn", "thermal-summer"}

// lifetimePresets are the seven-epoch cadence legs plus the drift-gated
// one: the presets dominated by fast-forward gaps and re-characterization.
var lifetimePresets = []string{"recharact-1mo", "recharact-3mo", "recharact-6mo", "drift-cadence"}

// job is what one child process runs; the parent passes it in the
// environment.
type job struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	SetupOnly bool   `json:"setup_only,omitempty"`
	Smoke     bool   `json:"smoke,omitempty"`
	TmpDir    string `json:"tmp_dir"`
	// Seconds bounds the timed rounds: a round starts only while the
	// previous one's length still fits. At least one round runs.
	Seconds float64 `json:"seconds"`
	// TraceOut, when set, makes the run traced and names its trace file;
	// a traced run times a fixed number of rounds instead.
	TraceOut string `json:"trace_out,omitempty"`
}

func (j job) sizes() sizes {
	if j.Smoke {
		return smokeSizes
	}
	return fullSizes
}

// round is one timed unit of work between two calibrations: one
// operation — a fleet run, a campaign block, a lifetime campaign — or,
// on the service, a batch of submissions from both clients.
type round struct {
	// opMS are the host latencies of the operations a user waits on.
	opMS []float64
	// ops counts operations for the failure count — fleet runs, cells or
	// submissions — and failed those that returned an error or a wrong
	// output.
	ops, failed int
	// nodeWindows counts node-windows executed; cells served from the
	// result store are not executed.
	nodeWindows int64
	// fingerprint hashes the round's simulated output. Every round of
	// population, campaign and lifetime repeats the same input, so every
	// fingerprint must equal the warm-up's; service rounds submit new
	// cells and check them as they stream, so only the warm-up's is set.
	fingerprint string
	err         error
}

// prepared is a workload after set-up: round runs round k (0 is the
// warm-up, run during set-up), traced when tr is not nil; layers fills
// a traced run's per-layer metrics after its rounds; close releases what
// set-up made.
type prepared struct {
	round        func(tr *tracer, k int) round
	layers       func(tr *tracer, res *iterResult)
	tracedRounds int
	close        func()
}

func setup(j job) (*prepared, error) {
	switch j.Workload {
	case "population":
		return setupPopulation(j)
	case "campaign":
		return setupCampaign(j)
	case "lifetime":
		return setupLifetime(j)
	case "service":
		return setupService(j)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", j.Workload, strings.Join(workloadNames, ", "))
}

func scaledPresets(names []string, nodes, windows int) ([]scenario.Scenario, error) {
	out := make([]scenario.Scenario, len(names))
	for i, name := range names {
		s, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = s.Scale(nodes, windows)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// traceLayers fills a traced run's per-layer metrics: what the hooks
// measured, the characterization cache's counters, then the probes.
func (r *iterResult) traceLayers(tr *tracer, stats fleet.CacheStats, in probeInput) {
	r.Layers = map[string]float64{}
	tr.layerMetrics(r.Layers)
	charactMetrics(r.Layers, stats)
	notes, err := runProbes(tr, in, r.Layers)
	r.Notes = notes
	r.fail(err)
}

// setupPopulation: the fleet-100k preset at 10k nodes, run as the CLI
// runs it — two fleet workers, per-node summaries streamed through
// OnNode. Every round is the same fleet run.
func setupPopulation(j job) (*prepared, error) {
	sz := j.sizes()
	s := scenario.Fleet100k().Scale(sz.popNodes, sz.popWindows)
	cfg, err := s.FleetConfig(j.Seed)
	if err != nil {
		return nil, err
	}
	cfg.Workers = 2
	cfg.OnNode = func(fleet.NodeSummary) {}
	var stats fleet.CacheStats
	var sample scenario.Result
	p := &prepared{tracedRounds: 2, close: func() {}}
	p.round = func(tr *tracer, k int) round {
		c := cfg
		c.Charact = fleet.NewCharactCache()
		r := round{ops: 1}
		start := time.Now()
		var sum fleet.Summary
		var err error
		if tr == nil {
			sum, err = fleet.Run(c)
		} else {
			root := tr.open(nil, "population")
			sum, err = tr.runFleet(root, c)
			tr.close(root)
			tr.cells.addSlots(root.End - root.Start)
		}
		r.opMS = []float64{ms(time.Since(start))}
		if err != nil {
			r.failed, r.err = 1, err
			return r
		}
		fp := sum.Fingerprint()
		r.nodeWindows = int64(c.Nodes) * int64(c.Windows)
		r.fingerprint = sha256Hex(fp)
		if tr != nil {
			stats = addStats(stats, c.Charact.Stats())
			sample = scenario.Result{Scenario: s.Name, Seed: j.Seed, Fingerprint: fp, Summary: sum}
		}
		return r
	}
	p.layers = func(tr *tracer, res *iterResult) {
		res.traceLayers(tr, stats, probeInput{cfg: cfg, sample: sample, sc: s, preset: s.Name, j: j})
	}
	return p, nil
}

// runGrid runs one scenario×seed campaign on two cell slots of one fleet
// worker each: untraced through scenario.RunCampaign, traced through
// tr.runCells under a span called name. It returns the cells in grid
// order, the campaign fingerprint and, traced, the cache counters.
func runGrid(tr *tracer, name string, scens []scenario.Scenario, seeds []uint64) ([]scenario.Result, string, fleet.CacheStats, error) {
	if tr == nil {
		rep, err := scenario.RunCampaign(scenario.Campaign{Scenarios: scens, Seeds: seeds, Parallel: 2, FleetWorkers: 1})
		return rep.Results, rep.FingerprintSHA256, fleet.CacheStats{}, err
	}
	root := tr.open(nil, name)
	cache := fleet.NewCharactCache()
	results, err := tr.runCells(root, gridCells(scens, seeds), 2, cache)
	tr.close(root)
	return results, gridFingerprint(results), cache.Stats(), err
}

// gridRound runs one campaign as a round: each cell is an operation for
// the failure count, the whole campaign the latency a user waits on.
func gridRound(tr *tracer, name string, scens []scenario.Scenario, seeds []uint64, stats *fleet.CacheStats, sample *scenario.Result) round {
	start := time.Now()
	results, fp, st, err := runGrid(tr, name, scens, seeds)
	r := round{opMS: []float64{ms(time.Since(start))}, fingerprint: fp, err: err}
	r.ops = len(results)
	for _, c := range results {
		if c.Err != "" {
			r.failed++
		} else {
			r.nodeWindows += int64(c.Summary.Nodes) * int64(c.Summary.Windows)
		}
	}
	if err != nil && r.failed == 0 {
		r.failed = max(r.ops, 1)
	}
	if tr != nil && err == nil {
		*stats = addStats(*stats, st)
		*sample = results[0]
	}
	return r
}

// setupCampaign: BenchmarkCampaign's grid — 6 classic presets × seeds
// s, s+1, s+2 — as one campaign per round, so the characterization
// cache never holds more than one grid.
func setupCampaign(j job) (*prepared, error) {
	sz := j.sizes()
	scens, err := scaledPresets(classicPresets, sz.campNodes, sz.campWindows)
	if err != nil {
		return nil, err
	}
	probeCfg, err := scens[0].FleetConfig(j.Seed)
	if err != nil {
		return nil, err
	}
	var stats fleet.CacheStats
	var sample scenario.Result
	p := &prepared{tracedRounds: 8, close: func() {}}
	p.round = func(tr *tracer, k int) round {
		return gridRound(tr, "scenario.block", scens, []uint64{j.Seed, j.Seed + 1, j.Seed + 2}, &stats, &sample)
	}
	p.layers = func(tr *tracer, res *iterResult) {
		res.traceLayers(tr, stats, probeInput{cfg: probeCfg, sample: sample, sc: scens[0], preset: scens[0].Name, j: j})
	}
	return p, nil
}

func addStats(a, b fleet.CacheStats) fleet.CacheStats {
	return fleet.CacheStats{
		Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Coalesced: a.Coalesced + b.Coalesced,
		DiskHits: a.DiskHits + b.DiskHits, Compiled: a.Compiled + b.Compiled,
	}
}

// setupLifetime: the lifetime presets × seeds {s, s+1} as one
// campaign per round — eight long cells on two slots.
func setupLifetime(j job) (*prepared, error) {
	sz := j.sizes()
	scens, err := scaledPresets(lifetimePresets, sz.lifeNodes, sz.lifeWindows)
	if err != nil {
		return nil, err
	}
	probeCfg, err := scens[0].FleetConfig(j.Seed)
	if err != nil {
		return nil, err
	}
	var stats fleet.CacheStats
	var sample scenario.Result
	p := &prepared{tracedRounds: 2, close: func() {}}
	p.round = func(tr *tracer, k int) round {
		return gridRound(tr, "scenario.campaign", scens, []uint64{j.Seed, j.Seed + 1}, &stats, &sample)
	}
	p.layers = func(tr *tracer, res *iterResult) {
		res.traceLayers(tr, stats, probeInput{cfg: probeCfg, sample: sample, sc: scens[0], preset: scens[0].Name, j: j})
	}
	return p, nil
}
