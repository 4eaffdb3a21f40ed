package scenario

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// hookCampaign is the tiny grid the hook tests share: two scenarios,
// two seeds, four cells, small enough that the full grid runs in well
// under a second.
func hookCampaign() Campaign {
	base := Baseline().Scale(2, 6)
	churn := ModeChurn().Scale(2, 6)
	return Campaign{
		Scenarios: []Scenario{base, churn},
		Seeds:     []uint64{11, 12},
		Parallel:  1,
	}
}

// TestCampaignCancellationAtCellBoundaries: canceling the campaign
// context after the first cell completes must leave that cell whole
// (byte-identical to the uninterrupted run), mark every unstarted cell
// CellCanceled, and surface context.Canceled from RunCampaign.
func TestCampaignCancellationAtCellBoundaries(t *testing.T) {
	full, err := RunCampaign(hookCampaign())
	if err != nil {
		t.Fatalf("uninterrupted campaign: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	camp := hookCampaign()
	camp.Context = ctx
	var cells atomic.Int64
	camp.OnCell = func(gi int, res Result) {
		if cells.Add(1) == 1 {
			cancel() // hard stop after the first cell persists
		}
	}
	rep, err := RunCampaign(camp)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign error = %v, want context.Canceled", err)
	}
	if rep.CanceledCells != 3 {
		t.Fatalf("CanceledCells = %d, want 3 (Parallel=1, canceled after cell 0)", rep.CanceledCells)
	}
	if got, want := rep.Results[0].Fingerprint, full.Results[0].Fingerprint; got != want {
		t.Errorf("interrupted cell 0 fingerprint diverged from the uninterrupted run")
	}
	for gi, res := range rep.Results[1:] {
		if res.Err != CellCanceled {
			t.Errorf("cell %d: Err = %q, want %q", gi+1, res.Err, CellCanceled)
		}
	}
}

// TestCampaignLookupServesCells: a Lookup hook fed from a prior run's
// results must serve every cell (marked Cached) without executing,
// and reproduce the campaign fingerprint byte for byte — the property
// the persistent result store's resume path rests on.
func TestCampaignLookupServesCells(t *testing.T) {
	full, err := RunCampaign(hookCampaign())
	if err != nil {
		t.Fatalf("uninterrupted campaign: %v", err)
	}
	type key struct {
		name string
		seed uint64
	}
	stored := map[key]Result{}
	for _, res := range full.Results {
		stored[key{res.Scenario, res.Seed}] = res
	}

	camp := hookCampaign()
	var executed atomic.Int64
	camp.Lookup = func(s Scenario, seed uint64) (Result, bool) {
		res, ok := stored[key{s.Name, seed}]
		return res, ok
	}
	camp.OnCell = func(gi int, res Result) {
		if !res.Cached {
			executed.Add(1)
		}
	}
	rep, err := RunCampaign(camp)
	if err != nil {
		t.Fatalf("lookup-served campaign: %v", err)
	}
	if executed.Load() != 0 {
		t.Errorf("%d cells executed despite a full Lookup", executed.Load())
	}
	if rep.CachedCells != len(full.Results) {
		t.Errorf("CachedCells = %d, want %d", rep.CachedCells, len(full.Results))
	}
	if rep.FingerprintSHA256 != full.FingerprintSHA256 {
		t.Errorf("lookup-served campaign fingerprint diverged:\n got %s\nwant %s",
			rep.FingerprintSHA256, full.FingerprintSHA256)
	}
}

// TestCampaignGateBoundsConcurrency: the Gate hook must be able to
// impose a pool narrower than Parallel — the mechanism a long-running
// service uses to share one bounded pool across submissions.
func TestCampaignGateBoundsConcurrency(t *testing.T) {
	camp := hookCampaign()
	camp.Parallel = 4 // four workers contending for a one-slot gate
	sem := make(chan struct{}, 1)
	var inFlight, maxInFlight int64
	var mu sync.Mutex
	camp.Gate = func(run func()) {
		sem <- struct{}{}
		defer func() { <-sem }()
		mu.Lock()
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		mu.Unlock()
		run()
		mu.Lock()
		inFlight--
		mu.Unlock()
	}
	rep, err := RunCampaign(camp)
	if err != nil {
		t.Fatalf("gated campaign: %v", err)
	}
	if maxInFlight != 1 {
		t.Errorf("gate leaked: %d cells in flight at once, want 1", maxInFlight)
	}
	full, err := RunCampaign(hookCampaign())
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	if rep.FingerprintSHA256 != full.FingerprintSHA256 {
		t.Errorf("gated campaign fingerprint diverged from the ungated run")
	}
}

// TestCampaignDrainsThroughGate: a slot that runs out of cells drains
// the characterization plan through the Gate, so a counting Gate never
// sees more concurrent run calls than it allows, drains included. The
// grid is skewed — a one-node cell beside a twelve-node one — so the
// slot that finishes first has planned keys left to drain; the results
// and the deterministic cache counts match an ungated serial run.
func TestCampaignDrainsThroughGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real characterizations; skipping in -short")
	}
	skewed := func() Campaign {
		return Campaign{
			Scenarios: []Scenario{Baseline().Scale(1, 4), ModeChurn().Scale(12, 4)},
			Seeds:     []uint64{5},
			Parallel:  2,
		}
	}
	serial := skewed()
	serial.Parallel = 1
	ref, err := RunCampaign(serial)
	if err != nil {
		t.Fatalf("serial campaign: %v", err)
	}
	for _, pool := range []int{1, 2} {
		camp := skewed()
		sem := make(chan struct{}, pool)
		var active, peak, runs atomic.Int64
		camp.Gate = func(run func()) {
			sem <- struct{}{}
			defer func() { <-sem }()
			runs.Add(1)
			n := active.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			run()
			active.Add(-1)
		}
		rep, err := RunCampaign(camp)
		if err != nil {
			t.Fatalf("pool %d: %v", pool, err)
		}
		if peak.Load() > int64(pool) {
			t.Errorf("pool %d: %d run calls in flight at once", pool, peak.Load())
		}
		if pool == 2 && runs.Load() <= int64(len(rep.Results)) {
			t.Errorf("pool %d: %d run calls for %d cells: the idle slot drained nothing through the Gate",
				pool, runs.Load(), len(rep.Results))
		}
		if rep.FingerprintSHA256 != ref.FingerprintSHA256 {
			t.Errorf("pool %d: fingerprint diverged from the serial run", pool)
		}
		if rep.CharactCacheHits != ref.CharactCacheHits || rep.CharactCacheMisses != ref.CharactCacheMisses {
			t.Errorf("pool %d: %d hits / %d misses, serial run %d / %d", pool,
				rep.CharactCacheHits, rep.CharactCacheMisses, ref.CharactCacheHits, ref.CharactCacheMisses)
		}
	}
}

// TestCampaignHelpingKeepsGridGolden: the six classic presets at four
// nodes and sixteen windows over seeds 1–3 (the grid BenchmarkCampaign
// tracks) give the same cache counts and campaign fingerprint at any
// Parallel: who characterizes a key, and whether a waiter helped, is
// unobservable.
func TestCampaignHelpingKeepsGridGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 18-cell grid three times; skipping in -short")
	}
	const golden = "4768b42dbb52c1578c203da357462c81840278c9c6b8e4aaf1046ceda9d8b592"
	var scens []Scenario
	for _, name := range []string{"baseline", "diurnal-burst", "droop-attack", "hetero-bins", "mode-churn", "thermal-summer"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scens = append(scens, s.Scale(4, 16))
	}
	first := ""
	for _, parallel := range []int{1, 2, 4} {
		rep, err := RunCampaign(Campaign{Scenarios: scens, Seeds: []uint64{1, 2, 3}, Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		if rep.CharactCacheHits != 54 || rep.CharactCacheMisses != 18 {
			t.Errorf("parallel %d: %d hits / %d misses, want 54 / 18", parallel, rep.CharactCacheHits, rep.CharactCacheMisses)
		}
		if first == "" {
			first = rep.FingerprintSHA256
		} else if rep.FingerprintSHA256 != first {
			t.Errorf("parallel %d: fingerprint %s, parallel 1 gave %s", parallel, rep.FingerprintSHA256, first)
		}
		// The golden was recorded on linux/amd64; other math-library
		// builds may round transcendentals differently.
		if runtime.GOOS == "linux" && runtime.GOARCH == "amd64" && rep.FingerprintSHA256 != golden {
			t.Errorf("parallel %d: fingerprint %s, want %s", parallel, rep.FingerprintSHA256, golden)
		}
	}
}
