package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"uniserver/internal/cpu"
	"uniserver/internal/vfr"
)

// TestFleetShardInvariance pins the scale-out contract at the fleet
// level: shard count — like worker count — never changes results. The
// shards fold in shard order and nodes within a shard in node order,
// so every (shards, workers) cell must reproduce the unsharded,
// single-worker fingerprint byte for byte.
func TestFleetShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	t.Parallel()
	base, err := Run(smallConfig(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := base.Fingerprint()
	for _, shards := range []int{2, 3, 8} {
		for _, workers := range []int{1, 4, 8} {
			cfg := smallConfig(5, workers)
			cfg.Shards = shards
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if got.Shards != EffectiveShards(shards, cfg.Nodes) {
				t.Fatalf("shards=%d: summary records %d shards, want %d",
					shards, got.Shards, EffectiveShards(shards, cfg.Nodes))
			}
			if got.Fingerprint() != want {
				t.Errorf("shards=%d workers=%d diverged from unsharded run:\n--- want ---\n%s--- got ---\n%s",
					shards, workers, want, got.Fingerprint())
			}
		}
	}
}

// TestShardRangePartition pins the balanced contiguous partition:
// concatenating the shard ranges in shard order yields [0, nodes)
// exactly, with sizes differing by at most one.
func TestShardRangePartition(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ nodes, shards int }{
		{1, 1}, {5, 2}, {7, 3}, {8, 8}, {100000, 7},
	} {
		next, minSz, maxSz := 0, tc.nodes, 0
		for s := 0; s < tc.shards; s++ {
			lo, hi := shardRange(tc.nodes, tc.shards, s)
			if lo != next || hi <= lo {
				t.Fatalf("nodes=%d shards=%d: shard %d range [%d,%d) does not continue from %d",
					tc.nodes, tc.shards, s, lo, hi, next)
			}
			next = hi
			minSz = min(minSz, hi-lo)
			maxSz = max(maxSz, hi-lo)
		}
		if next != tc.nodes {
			t.Fatalf("nodes=%d shards=%d: ranges end at %d", tc.nodes, tc.shards, next)
		}
		if maxSz-minSz > 1 {
			t.Fatalf("nodes=%d shards=%d: unbalanced shard sizes (%d..%d)", tc.nodes, tc.shards, minSz, maxSz)
		}
	}
}

// archetypeConfig is a two-bin heterogeneous fleet under
// archetype-clone characterization.
func archetypeConfig(nodes, workers, shards int) Config {
	cfg := smallConfig(nodes, workers)
	cfg.Shards = shards
	cfg.Archetypes = true
	base := cfg.BaseSpec()
	parts := []cpu.PartSpec{cpu.PartI5_4200U(), cpu.PartI7_3970X()}
	cfg.Node = func(i int) NodeSpec {
		spec := base
		spec.Part = parts[i%len(parts)]
		return spec
	}
	return cfg
}

// TestFleetArchetypeCharacterizesPerBin proves the O(bins)
// characterization claim with cache stats: a six-node, two-bin fleet
// runs exactly two characterizations, and every node restores a clone.
// Within a bin the characterized state is shared (same predictor
// accuracy, same published safe point) while runtime diverges per node
// (distinct seeds reseed the restored streams).
func TestFleetArchetypeCharacterizesPerBin(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	t.Parallel()
	cache := NewCharactCache()
	cfg := archetypeConfig(6, 4, 1)
	cfg.Charact = cache
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 2 || st.Hits != 4 {
		t.Fatalf("want 2 misses (one per bin) / 4 hits, got %d / %d", st.Misses, st.Hits)
	}
	// Nodes 0 and 2 share the i5 bin: bin-level characterization state
	// must match exactly; per-node runtime noise must not.
	a, b := sum.PerNode[0], sum.PerNode[2]
	if a.Model != b.Model || a.PredictorAcc != b.PredictorAcc {
		t.Fatalf("same-bin nodes diverged in characterized state: %+v vs %+v", a, b)
	}
	if a.Seed == b.Seed {
		t.Fatal("same-bin nodes share a node seed")
	}
	// Same-bin nodes draw independent runtime streams from their own
	// seeds (core.TestReseedRepositionsStreams pins the stream
	// positions); on a quiet run their summaries still match, because
	// nothing stochastic fired — which is itself the bin contract.
	if sum.PerNode[0].Model == sum.PerNode[1].Model {
		t.Fatal("alternating bins produced one model")
	}
}

// TestFleetArchetypeDeterministic pins that archetype-clone runs obey
// the same invariance contract as per-node characterization: any
// (shards, workers) cell — each with its own fresh cache, so the
// population order differs — reproduces the same fingerprint.
func TestFleetArchetypeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	t.Parallel()
	run := func(workers, shards int) string {
		sum, err := Run(archetypeConfig(5, workers, shards))
		if err != nil {
			t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
		}
		return sum.Fingerprint()
	}
	want := run(1, 1)
	for _, cell := range []struct{ workers, shards int }{{4, 1}, {1, 2}, {4, 2}, {8, 8}} {
		if got := run(cell.workers, cell.shards); got != want {
			t.Errorf("workers=%d shards=%d diverged:\n--- want ---\n%s--- got ---\n%s",
				cell.workers, cell.shards, want, got)
		}
	}

	// Archetype mode is intentionally a different experiment than
	// per-node characterization: the bin seed, not the node seed,
	// drives the silicon/DRAM lottery.
	perNode, err := Run(smallConfig(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if perNode.Fingerprint() == want {
		t.Fatal("archetype run unexpectedly matched per-node characterization")
	}
}

// TestFleetOnNodeStreaming pins the streaming merge: OnNode delivers
// exactly the summaries a retaining run would have put in PerNode, in
// node order, while the summary itself retains none — and the
// aggregate fingerprint lines stay byte-identical to the retaining
// run's.
func TestFleetOnNodeStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	t.Parallel()
	ref, err := Run(smallConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(4, 2)
	cfg.Shards = 2
	var streamed []NodeSummary
	cfg.OnNode = func(ns NodeSummary) { streamed = append(streamed, ns) }
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.PerNode != nil {
		t.Fatalf("streaming run retained %d per-node summaries", len(sum.PerNode))
	}
	if !reflect.DeepEqual(streamed, ref.PerNode) {
		t.Fatalf("streamed summaries diverged from retained ones:\n%+v\nvs\n%+v", streamed, ref.PerNode)
	}
	refLines := strings.SplitAfter(ref.Fingerprint(), "\n")
	if got, want := sum.Fingerprint(), refLines[0]+refLines[1]; got != want {
		t.Fatalf("streaming run's aggregate fingerprint diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestShardBacklogBound pins the two-shard bound on the unfolded
// backlog: no node of shard s may start before shard s-2 has been
// fully folded. Workers claim nodes from a shared cursor and gate
// themselves on the fold, so three workers over six shards are free to
// run ahead — and must not. The Node hook records each node's start
// (it still returns a pure spec) and OnNode counts folds; folds are in
// node order, so shard s-2 is fully folded once the count reaches the
// end of its range. The bounded run must also fingerprint like the
// unsharded one.
func TestShardBacklogBound(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	t.Parallel()
	const nodes, workers, shards = 24, 3, 6
	run := func(workers, shards int) (string, []string) {
		cfg := archetypeConfig(nodes, workers, shards)
		cfg.Windows = 8
		spec := cfg.Node
		var (
			mu         sync.Mutex
			folded     int
			violations []string
		)
		cfg.Node = func(i int) NodeSpec {
			s := shardOf(nodes, shards, i)
			mu.Lock()
			if s >= 2 {
				if _, hi := shardRange(nodes, shards, s-2); folded < hi {
					violations = append(violations, fmt.Sprintf(
						"node %d (shard %d) started with %d nodes folded; shard %d ends at %d", i, s, folded, s-2, hi))
				}
			}
			mu.Unlock()
			return spec(i)
		}
		cfg.OnNode = func(NodeSummary) {
			mu.Lock()
			folded++
			mu.Unlock()
		}
		sum, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
		}
		if folded != nodes {
			t.Fatalf("workers=%d shards=%d: %d folds, want %d", workers, shards, folded, nodes)
		}
		return sum.Fingerprint(), violations
	}
	got, violations := run(workers, shards)
	for _, v := range violations {
		t.Error(v)
	}
	if want, _ := run(1, 1); got != want {
		t.Fatalf("sharded run diverged from unsharded:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// shardOf returns the shard whose shardRange holds node i.
func shardOf(nodes, shards, i int) int {
	for s := 0; ; s++ {
		if _, hi := shardRange(nodes, shards, s); i < hi {
			return s
		}
	}
}

// TestShardedRunReportsEarliestFailure runs a sharded fleet in which
// two nodes of later shards fail mid-run. Workers gated on the fold
// must still drain every claim and return, and the run must report
// the earliest failing window whatever the worker count.
func TestShardedRunReportsEarliestFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	t.Parallel()
	for _, workers := range []int{1, 3} {
		cfg := archetypeConfig(24, workers, 6)
		cfg.Windows = 8
		cfg.Perturb = func(i, w int) Perturbation {
			if (i == 13 && w == 3) || (i == 20 && w == 1) {
				return Perturbation{Mode: &ModeChange{Mode: vfr.ModeHighPerformance, RiskTarget: -1}}
			}
			return Perturbation{}
		}
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), "node 20 window 1 ") {
			t.Fatalf("workers=%d: got %v, want node 20's window-1 failure", workers, err)
		}
	}
}

// TestFleetHealthLogOnFailure pins the error-path half of the health
// log contract: a failing run still flushes every node's log, and the
// flushed bytes are identical at any worker count. Healthy nodes step
// to their horizon whether or not another node failed, so nothing in
// the log depends on when the failure was observed.
func TestFleetHealthLogOnFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	t.Parallel()
	var want []byte
	for _, workers := range []int{1, 3} {
		cfg := smallConfig(6, workers)
		cfg.Shards = 2
		var log bytes.Buffer
		cfg.HealthLogOut = &log
		cfg.Perturb = func(i, w int) Perturbation {
			if i == 4 && w == 3 {
				return Perturbation{Mode: &ModeChange{Mode: vfr.ModeHighPerformance, RiskTarget: -1}}
			}
			return Perturbation{}
		}
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), "node 4 window 3 ") {
			t.Fatalf("workers=%d: got %v, want node 4's window-3 failure", workers, err)
		}
		if log.Len() == 0 {
			t.Fatalf("workers=%d: failed run flushed no health log", workers)
		}
		if want == nil {
			want = log.Bytes()
			continue
		}
		if !bytes.Equal(log.Bytes(), want) {
			t.Fatalf("workers=%d: health log (%d bytes) differs from workers=1 (%d bytes)",
				workers, log.Len(), len(want))
		}
	}
}

// errWriter fails every write with err.
type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

// TestFleetHealthLogFlushErrorOnFailure: when a failing run cannot
// flush its health log either, neither error is dropped — the run
// returns both, joined.
func TestFleetHealthLogFlushErrorOnFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	t.Parallel()
	cfg := smallConfig(2, 2)
	cfg.Windows = 4
	cfg.Perturb = func(i, w int) Perturbation {
		if i == 1 && w == 2 {
			return Perturbation{Mode: &ModeChange{Mode: vfr.ModeHighPerformance, RiskTarget: -1}}
		}
		return Perturbation{}
	}
	_, runErr := Run(cfg)
	if runErr == nil {
		t.Fatal("perturbed run did not fail")
	}
	writeErr := errors.New("disk full")
	cfg.HealthLogOut = errWriter{writeErr}
	_, err := Run(cfg)
	if !errors.Is(err, writeErr) {
		t.Fatalf("got %v, want the health-log write error", err)
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok || len(joined.Unwrap()) != 2 || joined.Unwrap()[0].Error() != runErr.Error() {
		t.Fatalf("got %v, want the run's error %q joined with the write error", err, runErr)
	}
}
