package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"uniserver/internal/campaignd"
	"uniserver/internal/fleet"
	"uniserver/internal/resultstore"
	"uniserver/internal/scenario"
)

// serviceClients is the closed loop's width: two clients, each waiting
// for its submission's done event before sending the next, over at
// most two connections.
const serviceClients = 2

// streamEvent is the part of campaignd's NDJSON submit stream this
// client reads.
type streamEvent struct {
	Type              string `json:"type"`
	Scenario          string `json:"scenario"`
	Seed              uint64 `json:"seed"`
	Cached            bool   `json:"cached"`
	FingerprintSHA256 string `json:"fingerprint_sha256"`
	Err               string `json:"error"`
	Status            string `json:"status"`
	CachedCells       int    `json:"cached_cells"`
}

// submission is one POST timed from the client: until the run event
// (accepted), the first cell event, and the done event.
type submission struct {
	latency, accept, firstEvent time.Duration
	cells                       []streamEvent
	cached, executed            int
}

func submit(client *http.Client, url string, req campaignd.SubmitRequest, tr *tracer, parent *span) (submission, error) {
	var sub submission
	body, err := json.Marshal(req)
	if err != nil {
		return sub, err
	}
	sp := tr.open(parent, "campaignd.submit")
	defer tr.close(sp)
	start, ts := time.Now(), tr.now()
	resp, err := client.Post(url+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return sub, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return sub, fmt.Errorf("campaignd: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	dec := json.NewDecoder(resp.Body)
	var done *streamEvent
	for done == nil {
		var ev streamEvent
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				return sub, errors.New("campaignd: stream ended without a done event")
			}
			return sub, err
		}
		switch ev.Type {
		case "run":
			sub.accept = time.Since(start)
			tr.record(sp, "campaignd.accept", ts, tr.now())
		case "cell":
			if len(sub.cells) == 0 {
				sub.firstEvent = time.Since(start)
				tr.record(sp, "campaignd.first_event", ts, tr.now())
			}
			if ev.Err != "" {
				return sub, fmt.Errorf("campaignd: cell %s seed %d: %s", ev.Scenario, ev.Seed, ev.Err)
			}
			sub.cells = append(sub.cells, ev)
			if ev.Cached {
				sub.cached++
			} else {
				sub.executed++
			}
		case "done":
			sub.latency = time.Since(start)
			done = &ev
		}
	}
	if done.Status != "complete" {
		return sub, fmt.Errorf("campaignd: run %s: %s", done.Status, done.Err)
	}
	return sub, nil
}

// service is campaignd's HTTP handler on 127.0.0.1 over a fresh result
// store.
type service struct {
	dir    string
	store  *resultstore.Store
	srv    *campaignd.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

func startService(tmpDir string) (*service, error) {
	dir, err := os.MkdirTemp(tmpDir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{
		dir:    dir,
		store:  st,
		srv:    campaignd.New(campaignd.Options{Store: st, Pool: 2, FleetWorkers: 1}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *service) stop() {
	// Every submission has finished by now, so Shutdown only closes the
	// listener and idle connections; nothing is left to report.
	_ = s.hs.Shutdown(context.Background())
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// storeCells pre-populates the result store through the server's own
// pool, one single-cell campaign per seed, and returns the stored
// cells in seed order. One campaign per cell keeps each campaign's
// in-memory characterization cache to one cell. The first campaign
// runs alone because it stamps the fresh spill directory: a second
// campaign attaching at the same moment can read the version stamp
// half-written and fail. The rest run on two goroutines.
func (s *service) storeCells(sc scenario.Scenario, seeds []uint64) ([]scenario.Result, error) {
	out := make([]scenario.Result, len(seeds))
	errs := make([]error, len(seeds))
	store := func(k int) {
		var rep scenario.Report
		_, rep, errs[k] = s.srv.Submit([]scenario.Scenario{sc}, []uint64{seeds[k]}, 1, 1, nil)
		if errs[k] == nil {
			out[k] = rep.Results[0]
		}
	}
	if store(0); errs[0] != nil {
		return nil, errs[0]
	}
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1 + c; k < len(seeds); k += serviceClients {
				store(k)
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// spillPresets characterize exactly like baseline at the same seed —
// they differ only in mode switches, attacks and arrivals — so a cell
// of one of them finds its node characterizations in the store's spill
// once baseline ran at that seed.
var spillPresets = []string{"mode-churn", "droop-attack", "diurnal-burst"}

// serviceClient is one closed-loop client. Its cells form a chain of
// seeds y0, y1, …: round r submits baseline at y(r+1) beside the
// stored baseline at y(r) — a fresh characterization that spills —
// then each spill preset at y(r+1) beside the now stored baseline at
// y(r+1), which characterizes from the spill. Every submission reads
// one stored cell and executes one; every run ID is unique.
type serviceClient struct {
	seed func(k int) uint64
	// seen maps every cell this client stored or saw executed to its
	// fingerprint: a stored cell must come back with it.
	seen map[string]string
}

func (c *serviceClient) requests(r int, nodes, windows int) []campaignd.SubmitRequest {
	prev, next := c.seed(r), c.seed(r+1)
	reqs := []campaignd.SubmitRequest{{Presets: []string{"baseline"}, Seeds: []uint64{prev, next}, Nodes: nodes, Windows: windows}}
	for _, p := range spillPresets {
		reqs = append(reqs, campaignd.SubmitRequest{Presets: []string{"baseline", p}, Seeds: []uint64{next}, Nodes: nodes, Windows: windows})
	}
	return reqs
}

// check verifies one submission's stream: one stored cell, served with
// the fingerprint it was stored with, and one executed cell, which it
// remembers.
func (c *serviceClient) check(sub submission) error {
	if sub.cached != 1 || sub.executed != 1 {
		return fmt.Errorf("%d cached and %d executed cells, want 1 and 1", sub.cached, sub.executed)
	}
	for _, ev := range sub.cells {
		id := fmt.Sprintf("%s@%d", ev.Scenario, ev.Seed)
		if !ev.Cached {
			c.seen[id] = ev.FingerprintSHA256
			continue
		}
		if want, ok := c.seen[id]; !ok || want != ev.FingerprintSHA256 {
			return fmt.Errorf("stored cell %s served with fingerprint %s, stored with %q", id, ev.FingerprintSHA256, want)
		}
	}
	return nil
}

// setupService: campaignd's handler over a fresh store, with each
// client's first baseline cell stored. The warm-up round's cells and
// the stored ones make the run's fingerprint.
func setupService(j job) (*prepared, error) {
	sz := j.sizes()
	scens, err := scaledPresets(append([]string{"baseline"}, spillPresets...), sz.svcNodes, sz.svcWindows)
	if err != nil {
		return nil, err
	}
	byName := map[string]scenario.Scenario{}
	for _, sc := range scens {
		byName[sc.Name] = sc
	}
	clients := make([]*serviceClient, serviceClients)
	first := make([]uint64, serviceClients)
	for c := range clients {
		base := 1_000_000*j.Seed + uint64(c)
		clients[c] = &serviceClient{seed: func(k int) uint64 { return base + uint64(k*serviceClients) }, seen: map[string]string{}}
		first[c] = clients[c].seed(0)
	}

	svc, err := startService(j.TmpDir)
	if err != nil {
		return nil, err
	}
	stored, err := svc.storeCells(scens[0], first)
	if err != nil {
		svc.stop()
		return nil, err
	}
	var pairs []string
	for c, res := range stored {
		clients[c].seen[fmt.Sprintf("%s@%d", res.Scenario, res.Seed)] = res.FingerprintSHA256
		key, _, err := resultstore.CellKey(scens[0], res.Seed)
		if err != nil {
			svc.stop()
			return nil, err
		}
		pairs = append(pairs, key+" "+res.FingerprintSHA256)
	}

	// What the traced rounds saw, for the per-layer metrics.
	var accepts, firsts []float64
	var executed []cell
	cachedCells, executedCells := 0, 0

	p := &prepared{tracedRounds: 2, close: svc.stop}
	p.round = func(tr *tracer, r int) round {
		subs := make([][]submission, serviceClients)
		errs := make([]error, serviceClients)
		root := tr.open(nil, "service")
		var wg sync.WaitGroup
		for c, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, req := range cl.requests(r, sz.svcNodes, sz.svcWindows) {
					sub, err := submit(svc.client, svc.url, req, tr, root)
					if err == nil {
						err = cl.check(sub)
					}
					if err != nil {
						errs[c] = fmt.Errorf("client %d round %d: %w", c, r, err)
						return
					}
					subs[c] = append(subs[c], sub)
				}
			}()
		}
		wg.Wait()
		tr.close(root)

		out := round{ops: serviceClients * (1 + len(spillPresets))}
		for c := range clients {
			for _, sub := range subs[c] {
				out.opMS = append(out.opMS, ms(sub.latency))
				out.nodeWindows += int64(sub.executed) * int64(sz.svcNodes) * int64(sz.svcWindows)
				if r == 0 {
					for _, ev := range sub.cells {
						key, _, err := resultstore.CellKey(byName[ev.Scenario], ev.Seed)
						if err != nil {
							errs[c] = err
						}
						pairs = append(pairs, key+" "+ev.FingerprintSHA256)
					}
				}
				if tr != nil {
					accepts = append(accepts, ms(sub.accept))
					firsts = append(firsts, ms(sub.firstEvent))
					cachedCells += sub.cached
					executedCells += sub.executed
					for _, ev := range sub.cells {
						if !ev.Cached {
							executed = append(executed, cell{byName[ev.Scenario], ev.Seed})
						}
					}
				}
			}
		}
		out.failed = out.ops - len(out.opMS)
		if out.err = errors.Join(errs...); out.err != nil && out.failed == 0 {
			out.failed = out.ops
		}
		if r == 0 {
			sort.Strings(pairs)
			out.fingerprint = sha256Hex(strings.Join(pairs, "\n"))
		}
		return out
	}

	// campaignd's pool hides the node hooks, so the fleet and scenario
	// layers come from re-running the traced rounds' first executed
	// cells with hooks, on the same two-slot fan-out.
	p.layers = func(tr *tracer, res *iterResult) {
		l := map[string]float64{}
		probeRoot := tr.open(nil, "service.probe_cells")
		results, err := tr.runCells(probeRoot, executed[:min(sz.probeCells, len(executed))], 2, fleet.NewCharactCache())
		tr.close(probeRoot)
		if err != nil {
			res.fail(err)
			return
		}
		tr.layerMetrics(l)
		stats, err := manifestStats(svc.store)
		if err != nil {
			res.fail(err)
			return
		}
		charactMetrics(l, stats)
		storeStats := svc.store.Stats()
		cfg, err := scens[0].FleetConfig(first[0])
		if err != nil {
			res.fail(err)
			return
		}
		notes, err := runProbes(tr, probeInput{cfg: cfg, sample: results[0], sc: executed[0].sc, j: j}, l)
		res.fail(err)
		l["resultstore.hits"] = float64(storeStats.Hits)
		l["resultstore.puts"] = float64(storeStats.Puts)
		l["resultstore.quarantined"] = float64(storeStats.Quarantined)
		l["campaignd.accept_ms"] = median(accepts)
		l["campaignd.first_event_ms"] = median(firsts)
		l["campaignd.cached_cells"] = float64(cachedCells)
		l["campaignd.executed_cells"] = float64(executedCells)
		res.Layers = l
		res.Notes = append([]string{fmt.Sprintf("fleet.* and scenario.* come from %d executed cells re-run with node hooks", len(results))}, notes...)
	}
	return p, nil
}

// manifestStats sums the characterization-cache counters every run in
// the store reported.
func manifestStats(st *resultstore.Store) (fleet.CacheStats, error) {
	runs, err := st.ListRuns()
	if err != nil {
		return fleet.CacheStats{}, err
	}
	var s fleet.CacheStats
	for _, m := range runs {
		if r := m.Report; r != nil {
			s = addStats(s, fleet.CacheStats{
				Hits: r.CharactCacheHits, Misses: r.CharactCacheMisses, Coalesced: r.CharactCoalesced,
				DiskHits: r.CharactDiskHits, Compiled: r.CharactCompiled,
			})
		}
	}
	return s, nil
}
