package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uniserver/internal/fleet"
	"uniserver/internal/scenario"
)

// span is one timed interval at a layer boundary. Spans of one
// operation (a fleet run, a campaign block, a submission, the probe
// pass) share a trace identifier: the ID of the operation's root span.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced child process in memory and
// accumulates the per-layer sums the hooks measure. Every method is a
// no-op on a nil tracer, which is how untraced runs skip it.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span

	fleet fleetAgg
	cells cellAgg
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is host time since the tracer started, in nanoseconds.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// openAt starts a span under parent at start; a nil parent begins a
// new trace.
func (t *tracer) openAt(parent *span, name string, start int64) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: t.ids.Add(1), Name: name, Start: start}
	if parent != nil {
		s.Trace, s.Parent = parent.Trace, parent.ID
	} else {
		s.Trace = s.ID
	}
	return s
}

func (t *tracer) open(parent *span, name string) *span { return t.openAt(parent, name, t.now()) }

func (t *tracer) closeAt(s *span, end int64) {
	if t == nil || s == nil {
		return
	}
	s.End = end
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

func (t *tracer) close(s *span) { t.closeAt(s, t.now()) }

// record adds a finished span whose bounds were measured elsewhere.
func (t *tracer) record(parent *span, name string, start, end int64) {
	t.closeAt(t.openAt(parent, name, start), end)
}

// rollupRow is one span name's totals: how many spans, their summed
// duration, and their self time — duration minus the part of the
// interval the span's children cover.
type rollupRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func rollup(spans []span) []rollupRow {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := make(map[string]*rollupRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &rollupRow{Name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		r.Count++
		r.TotalS += float64(dur) / 1e9
		r.SelfS += float64(dur-covered(kids[s.ID], s.Start, s.End)) / 1e9
	}
	out := make([]rollupRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// covered is the length of [lo, hi) that the union of the spans
// covers; parallel children overlap, so they are merged first.
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// traceFile is what a traced child writes when it exits.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Spans    []span      `json:"spans"`
	Rollup   []rollupRow `json:"rollup"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans, Rollup: rollup(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// fleetAgg sums what the fleet hooks measured over every fleet run of
// one traced iteration. Node setup and epoch gaps are kept for every
// node; window durations only for the sampled nodes.
type fleetAgg struct {
	mu                                            sync.Mutex
	nodeSetupMS, windowUS, gapMS                  []float64
	nodeSetupS, windowS, gapS, tailS, busyS, capS float64
}

// cellAgg sums the scenario layer's cell spans against the slot time
// the fan-out had available.
type cellAgg struct {
	mu          sync.Mutex
	cellMS      []float64
	cellS, capS float64
}

func (c *cellAgg) addCell(ns int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cellMS = append(c.cellMS, float64(ns)/1e6)
	c.cellS += float64(ns) / 1e9
}

// addSlots adds slot time: slots × the wall time the cells ran in.
func (c *cellAgg) addSlots(ns int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capS += float64(ns) / 1e9
}

// sampleEvery picks the nodes whose node and window spans are kept:
// node indices divisible by it. Sums cover every node.
const sampleEvery = 1000

// fleetHooks times one fleet.Run from outside, through the Config
// hooks: Node(i) opens node i, its first Perturb call ends the node's
// set-up (characterization or stamp, mode entry, export), the interval
// between consecutive Perturb calls is one window — or, across an
// epoch boundary, the fast-forward gap plus re-characterization — and
// the last OnNode call marks the final fold. Each node is touched by
// exactly one worker goroutine, so the per-node slots need no lock;
// fleet.Run joins its workers before returning, which orders those
// writes before finish reads them.
type fleetHooks struct {
	tr         *tracer
	run        *span
	workers    int
	epochStart []bool
	start      []int64
	first      []int64
	prev       []int64
	winSum     []int64
	winN       []int32
	sampled    []*span
	lastOnNode int64

	mu                 sync.Mutex
	winSamples, gapsMS []float64
}

func (t *tracer) hookFleet(cfg *fleet.Config, run *span) *fleetHooks {
	windows := cfg.Windows
	if cfg.Lifetime != nil {
		windows = cfg.Lifetime.TotalWindows()
	}
	n := cfg.Nodes
	h := &fleetHooks{
		tr: t, run: run,
		workers:    fleet.EffectiveWorkers(cfg.Workers, n),
		epochStart: make([]bool, windows),
		start:      make([]int64, n),
		first:      make([]int64, n),
		prev:       make([]int64, n),
		winSum:     make([]int64, n),
		winN:       make([]int32, n),
		sampled:    make([]*span, (n+sampleEvery-1)/sampleEvery),
	}
	if cfg.Lifetime != nil {
		w := 0
		for e, ew := range cfg.Lifetime.EpochWindows {
			if e > 0 && w < windows {
				h.epochStart[w] = true
			}
			w += ew
		}
	}

	node, base := cfg.Node, cfg.BaseSpec()
	cfg.Node = func(i int) fleet.NodeSpec {
		now := t.now()
		h.start[i], h.prev[i] = now, now
		if i%sampleEvery == 0 {
			h.sampled[i/sampleEvery] = t.openAt(run, "fleet.node", now)
		}
		if node == nil {
			return base
		}
		return node(i)
	}
	perturb := cfg.Perturb
	cfg.Perturb = func(i, w int) fleet.Perturbation {
		now := t.now()
		sp := h.sample(i)
		switch {
		case w == 0:
			h.first[i] = now
			if sp != nil {
				t.record(sp, "fleet.node_setup", h.start[i], now)
			}
		case h.epochStart[w]:
			h.mu.Lock()
			h.gapsMS = append(h.gapsMS, float64(now-h.prev[i])/1e6)
			h.mu.Unlock()
			if sp != nil {
				t.record(sp, "fleet.epoch_gap", h.prev[i], now)
			}
		default:
			d := now - h.prev[i]
			h.winSum[i] += d
			h.winN[i]++
			if sp != nil {
				h.mu.Lock()
				h.winSamples = append(h.winSamples, float64(d)/1e3)
				h.mu.Unlock()
				t.record(sp, "fleet.window", h.prev[i], now)
			}
		}
		h.prev[i] = now
		if perturb == nil {
			return fleet.Perturbation{}
		}
		return perturb(i, w)
	}
	// OnNode is wrapped only when the caller set it: setting it switches
	// the run to streaming, which changes the fingerprint.
	if onNode := cfg.OnNode; onNode != nil {
		cfg.OnNode = func(ns fleet.NodeSummary) {
			h.lastOnNode = t.now()
			onNode(ns)
		}
	}
	return h
}

func (h *fleetHooks) sample(i int) *span {
	if i%sampleEvery != 0 {
		return nil
	}
	return h.sampled[i/sampleEvery]
}

// finish closes the sampled node spans and folds the run into agg. No
// hook fires when a node's last window ends, so a node span ends one
// mean window after its last Perturb call.
func (h *fleetHooks) finish(agg *fleetAgg, runEnd int64) {
	lastHook := h.lastOnNode
	var setupMS []float64
	var setupNS, winNS, busyNS int64
	for i, first := range h.first {
		if first == 0 {
			continue // failed before its first window
		}
		setupMS = append(setupMS, float64(first-h.start[i])/1e6)
		setupNS += first - h.start[i]
		winNS += h.winSum[i]
		lastHook = max(lastHook, h.prev[i])
		end := h.prev[i]
		if h.winN[i] > 0 {
			end += h.winSum[i] / int64(h.winN[i])
		}
		end = min(end, runEnd)
		busyNS += end - h.start[i]
		h.tr.closeAt(h.sample(i), end)
	}
	agg.mu.Lock()
	defer agg.mu.Unlock()
	agg.nodeSetupMS = append(agg.nodeSetupMS, setupMS...)
	agg.windowUS = append(agg.windowUS, h.winSamples...)
	agg.gapMS = append(agg.gapMS, h.gapsMS...)
	for _, g := range h.gapsMS {
		agg.gapS += g / 1e3
	}
	agg.nodeSetupS += float64(setupNS) / 1e9
	agg.windowS += float64(winNS) / 1e9
	agg.busyS += float64(busyNS) / 1e9
	if lastHook > 0 {
		agg.tailS += float64(runEnd-lastHook) / 1e9
	}
	agg.capS += float64(int64(h.workers)*(runEnd-h.run.Start)) / 1e9
}

// runFleet is one traced cell: a scenario.cell span around a fleet.run
// span, with the node hooks installed on cfg.
func (t *tracer) runFleet(parent *span, cfg fleet.Config) (fleet.Summary, error) {
	cell := t.open(parent, "scenario.cell")
	run := t.open(cell, "fleet.run")
	h := t.hookFleet(&cfg, run)
	sum, err := fleet.Run(cfg)
	end := t.now()
	h.finish(&t.fleet, end)
	t.closeAt(run, end)
	t.close(cell)
	t.cells.addCell(cell.End - cell.Start)
	return sum, err
}

// cell is one (scenario, seed) grid cell.
type cell struct {
	sc   scenario.Scenario
	seed uint64
}

// gridCells lists a scenario×seed grid in scenario.RunCampaign's order,
// scenario-major and seed-minor.
func gridCells(scens []scenario.Scenario, seeds []uint64) []cell {
	var cells []cell
	for _, sc := range scens {
		for _, seed := range seeds {
			cells = append(cells, cell{sc, seed})
		}
	}
	return cells
}

// runCells is scenario.RunCampaign's execution rebuilt from its public
// pieces — Scenario.FleetConfig and fleet.Run, one shared
// characterization cache, one fleet worker per cell and the same
// atomic-cursor fan-out over `parallel` goroutines — so a traced run
// reaches the node hooks RunCampaign does not expose. Results come
// back in list order; their concatenated fingerprints hash to what
// RunCampaign reports for the same grid.
func (t *tracer) runCells(parent *span, cells []cell, parallel int, cache *fleet.CharactCache) ([]scenario.Result, error) {
	results := make([]scenario.Result, len(cells))
	errs := make([]error, len(cells))
	start := t.now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parallel; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(cells) {
					return
				}
				c := cells[k]
				results[k] = scenario.Result{Scenario: c.sc.Name, Seed: c.seed}
				cfg, err := c.sc.FleetConfig(c.seed)
				if err != nil {
					errs[k], results[k].Err = err, err.Error()
					continue
				}
				cfg.Workers = 1
				cfg.Charact = cache
				sum, err := t.runFleet(parent, cfg)
				if err != nil {
					errs[k] = err
					results[k].Err = err.Error()
					continue
				}
				fp := sum.Fingerprint()
				results[k].Fingerprint, results[k].FingerprintSHA256, results[k].Summary = fp, sha256Hex(fp), sum
			}
		}()
	}
	wg.Wait()
	t.cells.addSlots(int64(parallel) * (t.now() - start))
	return results, errors.Join(errs...)
}

// gridFingerprint hashes cell fingerprints in list order, as
// scenario.Report.FingerprintSHA256 does.
func gridFingerprint(results []scenario.Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.Fingerprint)
	}
	return sha256Hex(b.String())
}

func sha256Hex(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// layerMetrics reports the fleet and scenario layers from what the
// hooks accumulated.
func (t *tracer) layerMetrics(l map[string]float64) {
	f := &t.fleet
	l["fleet.node_setup_ms"] = median(f.nodeSetupMS)
	l["fleet.node_setup_s"] = f.nodeSetupS
	l["fleet.window_us"] = median(f.windowUS)
	l["fleet.window_s"] = f.windowS
	l["fleet.epoch_gap_ms"] = median(f.gapMS)
	l["fleet.epoch_gap_s"] = f.gapS
	l["fleet.tail_s"] = f.tailS
	l["fleet.worker_busy_frac"] = ratio(f.busyS, f.capS)
	c := &t.cells
	l["scenario.cell_ms"] = median(c.cellMS)
	l["scenario.cell_s"] = c.cellS
	l["scenario.pool_busy_frac"] = ratio(c.cellS, c.capS)
}

// charactMetrics reports a characterization cache's counters.
func charactMetrics(l map[string]float64, st fleet.CacheStats) {
	l["fleet.charact_hits"] = float64(st.Hits)
	l["fleet.charact_misses"] = float64(st.Misses)
	l["fleet.charact_coalesced"] = float64(st.Coalesced)
	l["fleet.charact_disk_hits"] = float64(st.DiskHits)
	l["fleet.charact_compiled"] = float64(st.Compiled)
	// A disk hit also spares a characterization.
	l["fleet.charact_hit_ratio"] = ratio(float64(st.Hits+st.DiskHits), float64(st.Hits+st.Misses+st.DiskHits))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
