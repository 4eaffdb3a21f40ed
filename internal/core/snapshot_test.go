package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// deploymentTrace runs a supervised deployment on the ecosystem and
// serializes everything observable about it — every window report
// field, the per-window predicted failure probability (bit-exact), and
// the final summary — so two ecosystems produce equal traces iff their
// streams never diverged by a single draw.
func deploymentTrace(t *testing.T, eco *Ecosystem, windows int) string {
	t.Helper()
	d, err := eco.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for w := 0; w < windows; w++ {
		traceWindow(t, &b, eco, d, w)
	}
	traceEnd(&b, eco, d)
	return b.String()
}

// traceWindow steps one window of d and appends its observable record.
func traceWindow(t *testing.T, b *strings.Builder, eco *Ecosystem, d *Deployment, w int) {
	t.Helper()
	rep, err := d.Step()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := eco.PredictedFailProb()
	if err != nil {
		t.Fatal(err)
	}
	dram := 0
	for _, n := range rep.DRAMHits {
		dram += n
	}
	fmt.Fprintf(b, "w=%d crash=%t corr=%d dram=%d alarm=%d temp=%x acts=%d pend=%d fp=%x\n",
		w, rep.Crashed, rep.Correctable, dram, rep.ThermalAlarm,
		math.Float64bits(rep.CPUTempC), len(rep.Actions), rep.PendingTests,
		math.Float64bits(fp))
}

// traceEnd appends the deployment summary and the end state.
func traceEnd(b *strings.Builder, eco *Ecosystem, d *Deployment) {
	fmt.Fprintf(b, "summary=%+v\n", d.Summary())
	fmt.Fprintf(b, "clock=%v mode=%v point=%v temps=%v,%v\n",
		eco.Clock.Now(), eco.Mode(), eco.Hypervisor.Point(),
		tempBits(eco.cpuTherm.TempC), tempBits(eco.memTherm.TempC))
}

func tempBits(c float64) uint64 { return math.Float64bits(c) }

// TestSnapshotRestoreEquivalence is the clone-equivalence contract the
// characterization cache rests on: an ecosystem restored from a
// post-characterization snapshot must be indistinguishable — window by
// window, bit by bit — from one freshly built and characterized with
// the same options, including when the restore re-seats the thermal
// nodes at a different ambient than the snapshot source was built
// with (that is what lets cells differing only in environment share
// one characterization).
func TestSnapshotRestoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	const windows = 40
	for _, seed := range []uint64{3, 19} {
		for _, amb := range []struct{ cpu, dimm float64 }{{0, 0}, {38, 44}} {
			name := fmt.Sprintf("seed=%d/ambient=%v", seed, amb.cpu)
			t.Run(name, func(t *testing.T) {
				// Fresh path: built at the cell's ambient, characterized.
				fopts := smallOptions(seed)
				fopts.AmbientCPUC, fopts.AmbientDIMMC = amb.cpu, amb.dimm
				fresh, err := New(fopts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fresh.PreDeployment(); err != nil {
					t.Fatal(err)
				}

				// Cached path: characterized at the DEFAULT ambient,
				// snapshotted, restored at the cell's ambient.
				proto, err := New(smallOptions(seed))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := proto.PreDeployment(); err != nil {
					t.Fatal(err)
				}
				snap, err := proto.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				restored, err := snap.Restore(RestoreOptions{AmbientCPUC: amb.cpu, AmbientDIMMC: amb.dimm})
				if err != nil {
					t.Fatal(err)
				}

				want := deploymentTrace(t, fresh, windows)
				got := deploymentTrace(t, restored, windows)
				if got != want {
					t.Fatalf("restored deployment diverged from fresh characterization:\n--- fresh ---\n%s--- restored ---\n%s",
						want, got)
				}
			})
		}
	}
}

// TestSnapshotRestoresAreIndependent pins the alias-free property:
// multiple restores from one snapshot must not share any mutable
// state, so running one to completion (mutating its silicon aging,
// DRAM VRT states, healthlog history, hypervisor counters and rng
// positions) must leave a sibling's and the snapshot's own behaviour
// untouched.
func TestSnapshotRestoresAreIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 5)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restore := func() *Ecosystem {
		r, err := snap.Restore(RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := restore(), restore()
	traceA := deploymentTrace(t, a, 30)
	// b runs only after a has fully mutated itself; any sharing would
	// make its trace differ from a's.
	traceB := deploymentTrace(t, b, 30)
	if traceA != traceB {
		t.Fatalf("sibling restores diverged — snapshot restores share mutable state:\n--- first ---\n%s--- second ---\n%s",
			traceA, traceB)
	}
	// A third restore taken after both runs must still match: the
	// snapshot itself was not written through by its children.
	traceC := deploymentTrace(t, restore(), 30)
	if traceC != traceA {
		t.Fatalf("snapshot state was mutated by its restores:\n--- before ---\n%s--- after ---\n%s",
			traceA, traceC)
	}
	// And the ecosystem the snapshot was taken from is equally
	// unaffected by all of the above.
	traceOrig := deploymentTrace(t, eco, 30)
	if traceOrig != traceA {
		t.Fatalf("snapshot source diverged from its restores:\n--- source ---\n%s--- restore ---\n%s",
			traceOrig, traceA)
	}
}

// TestSnapshotRefusesMidDeployment pins the capture-window guard:
// Restore re-derives thermal state from ambient, which is only exact
// before the first runtime window, so a later Snapshot must fail
// loudly instead of producing restores that silently diverge.
func TestSnapshotRefusesMidDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 11)
	if _, err := eco.Snapshot(); err != nil {
		t.Fatalf("pre-deployment snapshot refused: %v", err)
	}
	if _, err := eco.RunDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend(), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := eco.Snapshot(); err == nil {
		t.Fatal("mid-deployment snapshot accepted; restores would silently lose thermal state")
	}
}

// restoreAllocBudget fences the allocation count of one Restore — the
// operation every cache hit pays instead of a full characterization.
// The dominant terms are O(weak cells) slice copies (two DIMMs here),
// the 16,820-object hypervisor inventory copy, and the HealthLog's
// retained characterization vectors; all are single-allocation bulk
// copies, so the count stays in the low hundreds (measured ~200). If
// this fence breaks, a clone started copying element-wise (or
// deep-copying something it used to bulk-copy) — fix the clone, don't
// raise the fence.
const restoreAllocBudget = 400

// templateRestoreAllocBudget fences the steady-state allocation count
// of a warm template stamp — the cost every fleet node actually pays
// now that the compiled path is default-on. Everything is stamped into
// reused arena storage; the only survivors are the two thermal-node
// constructions of the ambient re-seat (measured: 2). If this fence
// breaks, a stamp started allocating per element — fix the stamp,
// don't raise the fence.
const templateRestoreAllocBudget = 4

func TestSnapshotRestoreAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 7)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := snap.Restore(RestoreOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Snapshot.Restore: %.0f allocs (budget %d)", avg, restoreAllocBudget)
	if avg > restoreAllocBudget {
		t.Fatalf("Snapshot.Restore allocates %.0f, budget is %d — the clone path regressed",
			avg, restoreAllocBudget)
	}

	// The compiled fast path: near zero steady-state allocations once
	// the arena is warm.
	tmpl := snap.Compile()
	arena := NewRestoreArena()
	if _, err := tmpl.RestoreInto(arena, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(50, func() {
		if _, err := tmpl.RestoreInto(arena, RestoreOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RestoreTemplate.RestoreInto (warm): %.0f allocs (budget %d)", warm, templateRestoreAllocBudget)
	if warm > templateRestoreAllocBudget {
		t.Fatalf("warm template stamp allocates %.0f, budget is %d — the stamp path regressed",
			warm, templateRestoreAllocBudget)
	}
}

// TestReseedRepositionsStreams pins the archetype-clone hook exactly:
// after Reseed(seed), the main stream sits at precisely the state a
// fresh New(seed) ecosystem carries into deployment (construction and
// PreDeployment consume only labeled child streams), and the machine's
// measurement stream sits at the "machine/runtime" labeled split of
// the same seed — repositioned in place, so the StressLog daemon's
// machine reference observes it too. Mid-epoch reseeds are refused for
// the same reason mid-epoch snapshots are.
func TestReseedRepositionsStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 3)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := snap.Restore(RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 99
	if err := clone.Reseed(seed); err != nil {
		t.Fatal(err)
	}
	if got, want := clone.src.State(), rng.New(seed).State(); got != want {
		t.Fatalf("main stream at %#x after reseed, want fresh New(%d) state %#x", got, seed, want)
	}
	if got, want := clone.Machine.StreamState(), rng.New(seed).SplitLabeled("machine/runtime").State(); got != want {
		t.Fatalf("machine stream at %#x after reseed, want labeled split %#x", got, want)
	}
	// The characterized state stays the bin's: reseeding must not touch
	// the published table or the trained model.
	if clone.table == nil || clone.advisor == nil {
		t.Fatal("reseed dropped characterized state")
	}

	// A reseeded clone is deployable and deterministic in its new seed:
	// two restores reseeded alike must trace identically.
	clone2, err := snap.Restore(RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := clone2.Reseed(seed); err != nil {
		t.Fatal(err)
	}
	if a, b := deploymentTrace(t, clone, 10), deploymentTrace(t, clone2, 10); a != b {
		t.Fatalf("same-seed reseeded clones diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}

	// Mid-epoch refusal: once runtime windows have run, the streams are
	// entangled with thermal state a reseed cannot reposition.
	if err := clone.Reseed(7); err == nil {
		t.Fatal("mid-deployment reseed accepted")
	}
}
