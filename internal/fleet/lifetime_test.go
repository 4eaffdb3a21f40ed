package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"uniserver/internal/core"
)

// lifetimeConfig is a small multi-epoch fleet: three epochs separated
// by 80-day gaps against the default 75-day stress period, so every
// epoch entry is due for a scheduled campaign.
func lifetimeConfig(nodes, workers int) Config {
	cfg := DefaultConfig(nodes)
	cfg.Workers = workers
	cfg.Seed = 7
	plan := core.UniformPlan(3, 8, 80, 0.6)
	cfg.Lifetime = &plan
	return cfg
}

// TestFleetLifetimeDeterministic extends the engine's core contract
// to multi-epoch runs: byte-identical fingerprints at 1, 4 and 8
// workers, with the lifetime observables actually present — nonzero
// scheduled re-characterizations, per-epoch trajectory lines in the
// fingerprint, and monotone aging drift.
func TestFleetLifetimeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	var want Summary
	for _, workers := range []int{1, 4, 8} {
		sum, err := Run(lifetimeConfig(2, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			want = sum
			continue
		}
		if sum.Fingerprint() != want.Fingerprint() {
			t.Fatalf("lifetime fingerprint diverged at workers=%d:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				workers, want.Fingerprint(), workers, sum.Fingerprint())
		}
	}
	if want.Windows != 24 {
		t.Fatalf("plan's total windows not honoured: got %d, want 24", want.Windows)
	}
	if want.Recharacterized == 0 {
		t.Fatal("lifetime run produced no re-characterizations; the cadence is dead")
	}
	if !strings.Contains(want.Fingerprint(), "epoch=2") {
		t.Fatal("margin trajectory missing from the fingerprint")
	}
	for _, n := range want.PerNode {
		if len(n.Epochs) != 3 {
			t.Fatalf("node %s has %d trajectory rows, want 3", n.Name, len(n.Epochs))
		}
		for i := 1; i < len(n.Epochs); i++ {
			if n.Epochs[i].AgeShiftMV < n.Epochs[i-1].AgeShiftMV {
				t.Fatalf("node %s margin drift not monotone at epoch %d", n.Name, i)
			}
		}
		if n.FinalAgeShiftMV <= 0 {
			t.Fatalf("node %s reports no final aging drift", n.Name)
		}
	}
}

// TestFleetSingleEpochFingerprintUnchanged guards the goldens: a
// plain run must emit no trajectory lines — the lifetime fields stay
// fingerprint-silent until a plan is set.
func TestFleetSingleEpochFingerprintUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	cfg := smallConfig(2, 2)
	cfg.Windows = 6
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sum.Fingerprint(), "epoch=") || strings.Contains(sum.Fingerprint(), "lifetime") {
		t.Fatalf("single-epoch fingerprint grew lifetime lines:\n%s", sum.Fingerprint())
	}
	for _, n := range sum.PerNode {
		if n.Epochs != nil {
			t.Fatalf("node %s has a trajectory without a lifetime plan", n.Name)
		}
	}
}

// TestFleetOneEpochPlanMatchesPlainRun pins the node task's one epoch
// loop: a plain W-window run is the one-epoch plan of W windows, so
// setting that plan explicitly changes nothing — fingerprint, per-node
// summaries and health log — at 1 and 3 workers.
func TestFleetOneEpochPlanMatchesPlainRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	const windows = 6
	run := func(workers int, plan *core.LifetimePlan) (Summary, []byte) {
		cfg := smallConfig(3, workers)
		cfg.Windows = windows
		cfg.Lifetime = plan
		var log bytes.Buffer
		cfg.HealthLogOut = &log
		sum, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d plan=%v: %v", workers, plan != nil, err)
		}
		return sum, log.Bytes()
	}
	plain, plainLog := run(1, nil)
	for _, workers := range []int{1, 3} {
		got, gotLog := run(workers, &core.LifetimePlan{EpochWindows: []int{windows}})
		if got.Fingerprint() != plain.Fingerprint() {
			t.Fatalf("workers=%d: one-epoch plan diverged from the plain run:\n--- plain ---\n%s--- plan ---\n%s",
				workers, plain.Fingerprint(), got.Fingerprint())
		}
		if !reflect.DeepEqual(got.PerNode, plain.PerNode) {
			t.Fatalf("workers=%d: per-node summaries differ:\nplain %+v\nplan  %+v", workers, plain.PerNode, got.PerNode)
		}
		if len(plainLog) == 0 || !bytes.Equal(gotLog, plainLog) {
			t.Fatalf("workers=%d: health log (%d bytes) differs from the plain run's (%d bytes)",
				workers, len(gotLog), len(plainLog))
		}
	}
}

// TestCharactCacheDiskSharing is the cross-process contract of the
// spill directory: a second, fresh cache instance pointed at the same
// directory must serve every characterization from disk — zero
// campaigns run — and produce byte-identical fleet results, health
// log included.
func TestCharactCacheDiskSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	dir := t.TempDir()
	run := func() (Summary, string, CacheStats) {
		cache := NewCharactCache()
		if err := cache.AttachDir(dir); err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(2, 2)
		cfg.Windows = 6
		cfg.Charact = cache
		var log strings.Builder
		cfg.HealthLogOut = &log
		sum, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.DiskErr(); err != nil {
			t.Fatalf("disk spill failed: %v", err)
		}
		return sum, log.String(), cache.Stats()
	}
	cold, coldLog, coldStats := run()
	warm, warmLog, warmStats := run()
	// A fresh cache instance stands in for a fresh process; only the
	// directory is shared. The cold run must characterize everything,
	// the warm one must run zero campaigns.
	if coldStats.Misses == 0 || coldStats.DiskHits != 0 {
		t.Fatalf("cold run stats unexpected: %+v", coldStats)
	}
	if warmStats.DiskHits == 0 || warmStats.Misses != 0 {
		t.Fatalf("warm run did not serve from disk: %+v", warmStats)
	}
	if cold.Fingerprint() != warm.Fingerprint() {
		t.Fatalf("disk-served run diverged from the characterizing run:\n--- cold ---\n%s--- warm ---\n%s",
			cold.Fingerprint(), warm.Fingerprint())
	}
	if coldLog != warmLog {
		t.Fatal("health-log bytes diverged between cold and warm cache runs")
	}
}

// TestAttachDirRefusesMismatchedVersion pins the version gate on the
// spill directory.
func TestAttachDirRefusesMismatchedVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewCharactCache().AttachDir(dir); err == nil {
		t.Fatal("mismatched cache-dir version accepted")
	}
	// A fresh dir is stamped and accepted.
	fresh := t.TempDir()
	if err := NewCharactCache().AttachDir(fresh); err != nil {
		t.Fatal(err)
	}
	if err := NewCharactCache().AttachDir(fresh); err != nil {
		t.Fatalf("re-attach to a same-version dir refused: %v", err)
	}
}

// TestFleetLifetimeGapFailure checks a plan whose gaps are invalid is
// rejected up front, not mid-run.
func TestFleetLifetimeGapFailure(t *testing.T) {
	cfg := DefaultConfig(1)
	plan := core.LifetimePlan{EpochWindows: []int{2, 2}, Gaps: []core.Gap{{Days: -1}}}
	cfg.Lifetime = &plan
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid lifetime plan accepted")
	}
}
