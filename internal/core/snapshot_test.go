package core

import (
	"errors"
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
	fmt.Fprintf(b, "w=%d crash=%t corr=%d dram=%d alarm=%d temp=%x hyp=%+v pend=%d fp=%x\n",
		w, rep.Crashed, rep.Correctable, rep.DRAMCorrected, rep.ThermalAlarm,
		math.Float64bits(rep.CPUTempC), eco.Hypervisor.Stats(), rep.PendingTests,
		math.Float64bits(fp))
}

// traceEnd appends the deployment summary and the end state.
func traceEnd(b *strings.Builder, eco *Ecosystem, d *Deployment) {
	fmt.Fprintf(b, "summary=%+v\n", d.Summary())
	fmt.Fprintf(b, "clock=%v mode=%v point=%v temps=%v,%v\n",
		eco.Clock.Now(), eco.mode, eco.Hypervisor.Point(),
		tempBits(eco.cpuTherm.TempC), tempBits(eco.memTherm.TempC))
}

func tempBits(c float64) uint64 { return math.Float64bits(c) }

// coldStamp restores snap into a fresh arena: the cold stamp.
func coldStamp(t *testing.T, snap *Snapshot, opts RestoreOptions) *Ecosystem {
	t.Helper()
	e, err := snap.RestoreInto(NewRestoreArena(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// directEcosystem is the reference every stamp is compared against:
// the uncached direct path, New + PreDeployment with smallOptions at
// the given ambient (zero means the defaults).
func directEcosystem(t *testing.T, seed uint64, ambCPU, ambDIMM float64) *Ecosystem {
	t.Helper()
	opts := smallOptions(seed)
	opts.AmbientCPUC, opts.AmbientDIMMC = ambCPU, ambDIMM
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PreDeployment(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSnapshotRefusesMidDeployment pins the checkpoint contract: a
// snapshot is the pre-deployment characterization only. Snapshot
// refuses an ecosystem before PreDeployment, after a mode entry, after
// one runtime window and after a later fast-forward gap, because a
// stamp re-derives thermal state from ambient and holds a table and an
// advisor, and with weak-cell growth armed, because a stamp starts
// without it; Reseed refuses once a window has run. Each case runs on its
// own stamp of the accepted snapshot.
func TestSnapshotRefusesMidDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	fresh, err := New(smallOptions(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Snapshot(); !errors.Is(err, ErrNotCharacterized) {
		t.Fatalf("snapshot before PreDeployment: got %v, want ErrNotCharacterized", err)
	}
	eco, _ := readyEcosystem(t, 11)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatalf("pre-deployment snapshot refused: %v", err)
	}
	wl := workload.WebFrontend()
	cases := []struct {
		name   string
		reseed bool // Reseed must refuse too
		do     func(t *testing.T, e *Ecosystem)
	}{
		{"after EnterMode", false, func(t *testing.T, e *Ecosystem) {
			if _, err := e.EnterMode(vfr.ModeHighPerformance, 0.01, wl); err != nil {
				t.Fatal(err)
			}
		}},
		{"after one window", true, func(t *testing.T, e *Ecosystem) { e.RuntimeWindow(wl) }},
		{"with weak-cell growth armed", false, func(t *testing.T, e *Ecosystem) { e.SetWeakGrowth(5) }},
		{"after a later FastForward", true, func(t *testing.T, e *Ecosystem) {
			d, err := e.StartDeployment(vfr.ModeHighPerformance, 0.01, wl)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Step(); err != nil {
				t.Fatal(err)
			}
			if err := d.FastForward(Gap{Days: 30, Duty: 0.6}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := coldStamp(t, snap, RestoreOptions{})
			c.do(t, e)
			if _, err := e.Snapshot(); err == nil {
				t.Fatal("snapshot accepted; restores would silently lose deployment state")
			}
			if err := e.Reseed(7); c.reseed && err == nil {
				t.Fatal("reseed accepted after a runtime window")
			}
		})
	}
}

// TestSnapshotRestoresAreIndependent pins that cold restores share no
// mutable state: sibling restores, a later restore and the snapshot's
// source all trace the same deployment, whatever ran before them.
func TestSnapshotRestoresAreIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 5)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restore := func() *Ecosystem { return coldStamp(t, snap, RestoreOptions{}) }
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

// templateRestoreAllocBudget fences the steady-state allocation count
// of a warm stamp — the cost every fleet node actually pays. Everything
// is stamped into reused arena storage, the thermal nodes included
// (they are settled in place), so a warm stamp allocates nothing. If
// this fence breaks, the stamp started allocating — fix the stamp,
// don't raise the fence.
const templateRestoreAllocBudget = 0

func TestSnapshotRestoreAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 7)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Near zero steady-state allocations once the arena is warm.
	arena := NewRestoreArena()
	if _, err := snap.RestoreInto(arena, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(50, func() {
		if _, err := snap.RestoreInto(arena, RestoreOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Snapshot.RestoreInto (warm): %.0f allocs (budget %d)", warm, templateRestoreAllocBudget)
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
// machine reference observes it too.
func TestReseedRepositionsStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 3)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clone := coldStamp(t, snap, RestoreOptions{})
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
	// two stamps reseeded alike must trace identically.
	clone2 := coldStamp(t, snap, RestoreOptions{})
	if err := clone2.Reseed(seed); err != nil {
		t.Fatal(err)
	}
	if a, b := deploymentTrace(t, clone, 10), deploymentTrace(t, clone2, 10); a != b {
		t.Fatalf("same-seed reseeded clones diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}
