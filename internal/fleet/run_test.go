package fleet

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"uniserver/internal/cpu"
	"uniserver/internal/vfr"
)

// archetypeConfig is a two-bin heterogeneous fleet under
// archetype-clone characterization.
func archetypeConfig(nodes, workers int) Config {
	cfg := smallConfig(nodes, workers)
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
	cfg := archetypeConfig(6, 4)
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
// worker count — each run with its own fresh cache, so the population
// order differs — reproduces the same fingerprint.
func TestFleetArchetypeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	t.Parallel()
	run := func(workers int) string {
		sum, err := Run(archetypeConfig(5, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sum.Fingerprint()
	}
	want := run(1)
	for _, workers := range []int{4, 8} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d diverged:\n--- want ---\n%s--- got ---\n%s", workers, want, got)
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

// TestRunReportsEarliestFailure runs a fleet in which two late nodes
// fail mid-run. The pool must still drain every claim and return, the
// run must report the earliest failing window whatever the worker
// count, and OnNode must receive no summary: a failed run folds
// nothing.
func TestRunReportsEarliestFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	t.Parallel()
	for _, workers := range []int{1, 3} {
		cfg := archetypeConfig(24, workers)
		cfg.Windows = 8
		streamed := 0
		cfg.OnNode = func(NodeSummary) { streamed++ }
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
		if streamed != 0 {
			t.Fatalf("workers=%d: failed run delivered %d summaries to OnNode", workers, streamed)
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
