package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"uniserver/internal/cpu"
	"uniserver/internal/hypervisor"
	"uniserver/internal/rng"
	"uniserver/internal/telemetry"
	"uniserver/internal/thermal"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// TestTemplateRestoreEquivalence pins the stamp to the reference
// implementation, the uncached direct path: an ecosystem stamped from
// a snapshot must be indistinguishable — window by window, bit by bit
// — from one built and characterized directly with the same options,
// across ambients, on a cold arena, on a warm arena, and on an arena
// left dirty by a full deployment of the previous occupant.
func TestTemplateRestoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	const windows = 40
	for _, seed := range []uint64{3, 19} {
		for _, amb := range []struct{ cpu, dimm float64 }{{0, 0}, {38, 44}} {
			t.Run(fmt.Sprintf("seed=%d/ambient=%v", seed, amb.cpu), func(t *testing.T) {
				eco, _ := readyEcosystem(t, seed)
				snap, err := eco.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				ropts := RestoreOptions{AmbientCPUC: amb.cpu, AmbientDIMMC: amb.dimm}

				want := deploymentTrace(t, directEcosystem(t, seed, amb.cpu, amb.dimm), windows)
				wantW := writtenTrace(t, directEcosystem(t, seed, amb.cpu, amb.dimm), windows)

				arena := NewRestoreArena()
				// Cold stamp, warm stamp, dirty re-stamp: each must
				// reproduce the reference trace exactly. Each trace run
				// leaves the arena ecosystem fully mutated (aged silicon,
				// spent streams, advanced clock), so every iteration after
				// the first also proves the stamp overwrites all of it.
				// The written passes take a stamp that shares the
				// snapshot's weak cells and object inventory through its
				// first writes (copy-on-write), and the passes after them
				// re-stamp an arena whose DIMMs and inventory were
				// unshared, which must share again and still match.
				// Each trace also leaves the window step's memos (leakage
				// voltage factor, thermal relaxation factors) set, and
				// the stamp must clear them.
				for pass, p := range []struct {
					label   string
					written bool
				}{
					{"cold", false}, {"warm", false}, {"dirty", false},
					{"shared-then-written", true}, {"restamp-after-write", false}, {"written-again", true},
				} {
					stamped, err := snap.RestoreInto(arena, ropts)
					if err != nil {
						t.Fatal(err)
					}
					if stamped.leak != (voltMemo{}) ||
						*stamped.cpuTherm != *thermal.CPUNode(stamped.opts.AmbientCPUC) ||
						*stamped.memTherm != *thermal.DIMMNode(stamped.opts.AmbientDIMMC) {
						t.Fatalf("pass %d (%s): stamp left a window-step memo set: leak %+v cpu %+v dimm %+v",
							pass, p.label, stamped.leak, *stamped.cpuTherm, *stamped.memTherm)
					}
					trace, ref := deploymentTrace, want
					if p.written {
						trace, ref = writtenTrace, wantW
					}
					if got := trace(t, stamped, windows); got != ref {
						t.Fatalf("pass %d (%s): stamp diverged from direct characterization:\n--- direct ---\n%s--- stamped ---\n%s",
							pass, p.label, ref, got)
					}
				}
			})
		}
	}
}

// TestTemplateRestoreHealthLogBytes pins the per-node log surface: the
// JSON-lines health log a stamped ecosystem writes during deployment
// must be byte-identical to what a directly characterized one writes,
// since the fleet's golden health logs are fingerprinted from these
// bytes.
func TestTemplateRestoreHealthLogBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 7)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	run := func(e *Ecosystem) {
		t.Helper()
		if _, err := e.RunDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend(), 25); err != nil {
			t.Fatal(err)
		}
	}
	var directLog, stampLog bytes.Buffer
	opts := smallOptions(7)
	opts.HealthLogOut = &directLog
	direct, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.PreDeployment(); err != nil {
		t.Fatal(err)
	}
	directLog.Reset() // a stamp replays no characterization lines
	run(direct)

	arena := NewRestoreArena()
	if _, err := snap.RestoreInto(arena, RestoreOptions{}); err != nil {
		t.Fatal(err) // cold stamp; the warm stamp below is the path under test
	}
	stamped, err := snap.RestoreInto(arena, RestoreOptions{HealthLogOut: &stampLog})
	if err != nil {
		t.Fatal(err)
	}
	run(stamped)

	if directLog.Len() == 0 || !bytes.Equal(directLog.Bytes(), stampLog.Bytes()) {
		t.Fatalf("health-log bytes diverged (direct %d bytes, stamped %d bytes)",
			directLog.Len(), stampLog.Len())
	}
}

// TestTemplateRestoreReseed pins the archetype path through the stamp:
// stamp + Reseed must equal direct characterization + Reseed, stream
// for stream.
func TestTemplateRestoreReseed(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 5)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1234

	direct := directEcosystem(t, 5, 0, 0)
	if err := direct.Reseed(seed); err != nil {
		t.Fatal(err)
	}
	want := deploymentTrace(t, direct, 30)

	arena := NewRestoreArena()
	for _, pass := range []string{"cold", "warm"} {
		stamped, err := snap.RestoreInto(arena, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := stamped.Reseed(seed); err != nil {
			t.Fatal(err)
		}
		if got := deploymentTrace(t, stamped, 30); got != want {
			t.Fatalf("%s reseeded stamp diverged:\n--- direct ---\n%s--- stamped ---\n%s", pass, want, got)
		}
	}
}

// TestTemplateRestoreEpochBoundary pins the lifetime-engine capture
// window: a snapshot taken on a fast-forward epoch boundary after an
// in-field re-characterization (the AVATAR growth path: aged silicon,
// grown VRT state, refreshed margins) must stamp, cold and warm,
// exactly the ecosystem its source keeps running as.
func TestTemplateRestoreEpochBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 11)
	d, err := eco.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 15; w++ {
		if _, err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FastForward(Gap{Days: 60, Duty: 0.5, AmbientCPUC: 33, AmbientDIMMC: 39}); err != nil {
		t.Fatal(err)
	}
	if err := d.RecharacterizeNow(); err != nil {
		t.Fatal(err)
	}
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	arena := NewRestoreArena()
	ropts := RestoreOptions{AmbientCPUC: 33, AmbientDIMMC: 39}
	var traces []string
	for range 2 { // cold, then warm
		stamped, err := snap.RestoreInto(arena, ropts)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, deploymentTrace(t, stamped, 30))
	}
	want := deploymentTrace(t, eco, 30)
	for i, got := range traces {
		if got != want {
			t.Fatalf("epoch-boundary stamp %d diverged from its source:\n--- source ---\n%s--- stamped ---\n%s", i, want, got)
		}
	}
}

// TestTemplateRestoreIndependence pins the alias-free property across
// arenas: running one stamped node to completion (mutating silicon
// aging, VRT telegraph state, health history, hypervisor counters,
// stream positions) must leave the snapshot — and nodes stamped from
// it afterwards, on the same or other arenas — untouched.
func TestTemplateRestoreIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 13)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	a, b := NewRestoreArena(), NewRestoreArena()
	stamp := func(ar *RestoreArena) *Ecosystem {
		t.Helper()
		e, err := snap.RestoreInto(ar, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	traceA := deploymentTrace(t, stamp(a), 30)
	// b stamps only after a's node fully mutated itself; bleed into the
	// shared snapshot would show up here.
	traceB := deploymentTrace(t, stamp(b), 30)
	if traceA != traceB {
		t.Fatalf("sibling arena stamps diverged — snapshot state is shared mutable:\n--- first ---\n%s--- second ---\n%s",
			traceA, traceB)
	}
	// Re-stamping the dirty arenas must still reproduce the original.
	if traceC := deploymentTrace(t, stamp(a), 30); traceC != traceA {
		t.Fatalf("re-stamp after a full deployment diverged:\n--- before ---\n%s--- after ---\n%s",
			traceA, traceC)
	}
	// And every stamp still matches the direct characterization.
	if traceD := deploymentTrace(t, directEcosystem(t, 13, 0, 0), 30); traceD != traceA {
		t.Fatalf("stamps diverged from direct characterization:\n--- direct ---\n%s--- stamped ---\n%s",
			traceD, traceA)
	}
}

// writtenTrace is deploymentTrace for a node that writes every piece
// of state a stamp shares with its snapshot by reference: weak-cell
// growth and VRT toggles across a fast-forward gap, the pattern tests
// of a re-characterization, one more pattern test, a VRT reindex and
// selective protection of hypervisor objects. The trace ends with a
// digest of the written weak cells and object inventory.
func writtenTrace(t *testing.T, eco *Ecosystem, windows int) string {
	t.Helper()
	eco.SetWeakGrowth(40)
	d, err := eco.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for w := 0; w < windows/2; w++ {
		traceWindow(t, &b, eco, d, w)
	}
	if err := d.FastForward(Gap{Days: 20, Duty: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := d.RecharacterizeNow(); err != nil {
		t.Fatal(err)
	}
	for _, dom := range eco.Mem.RelaxedDomains() {
		res := eco.Mem.RunPatternTest(dom, rng.New(77))
		fmt.Fprintf(&b, "pattern %s errs=%d\n", dom.Name, res.BitErrors)
	}
	eco.Mem.Reindex()
	objs := eco.Hypervisor.Objects()
	fmt.Fprintf(&b, "protected %d+%d\n", objs.Protect(hypervisor.CatPCI), objs.ProtectObjects([]int{3, 5, 8}))
	for w := windows / 2; w < windows; w++ {
		traceWindow(t, &b, eco, d, w)
	}
	traceEnd(&b, eco, d)
	fmt.Fprintf(&b, "state=%s\n", sharedStateDigest(eco))
	return b.String()
}

// sharedStateDigest hashes the state a stamp shares with its snapshot
// until first write: every DIMM's weak cells with their telegraph
// states (the memory image's columns), and the object inventory; and
// the health histories, whose stamped vectors the snapshot shares for
// good.
func sharedStateDigest(eco *Ecosystem) string {
	h := sha256.New()
	h.Write(eco.Mem.Flatten().AppendColumns(nil))
	fmt.Fprintf(h, "%v\n", eco.Hypervisor.Objects().Objects)
	for _, comp := range slices.Sorted(slices.Values(eco.Health.Components())) {
		fmt.Fprintf(h, "%s %v\n", comp, eco.Health.Query(comp, time.Time{}))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// snapshotDigest hashes the snapshot's encoded images — everything a
// stamp may alias or copy — and the shared state of a fresh stamp,
// which reads the health vectors the encoding holds only copies of.
func snapshotDigest(t *testing.T, snap *Snapshot) string {
	t.Helper()
	b, err := snap.img.encode()
	if err != nil {
		t.Fatal(err)
	}
	e, err := snap.RestoreInto(NewRestoreArena(), RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append(b, sharedStateDigest(e)...))
	return hex.EncodeToString(sum[:])
}

// TestTemplateImmutableUnderConcurrentWriters pins the ownership
// invariant the shared stamp rests on. Two goroutines stamp arenas
// from one snapshot — so their DIMMs, object inventories and health
// histories alias the snapshot's — and drive every writer of that
// state on them: fast-forward with weak-cell growth,
// re-characterization, pattern tests, reindexing, both protection
// calls, and runtime windows recording past the health log's one-hour
// window, whose cursor walks the shared health vectors. A third drives
// the same writers on the snapshot's source ecosystem, which the snapshot
// must hold no pointer into. Afterwards the snapshot must hash exactly
// as before, and under -race any writer that skipped copy-on-write —
// or any image that still aliases its source — is a reported data
// race against another goroutine's reads. Both stamping goroutines
// must also observe the same written state, so no write leaked between
// arenas.
func TestTemplateImmutableUnderConcurrentWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 23)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotDigest(t, snap)

	writers := []struct {
		name string
		do   func(t *testing.T, e *Ecosystem)
	}{
		{"fast-forward+growth", func(t *testing.T, e *Ecosystem) {
			e.SetWeakGrowth(60)
			d, err := e.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
			if err != nil {
				t.Error(err)
				return
			}
			if err := d.FastForward(Gap{Days: 15, Duty: 0.4}); err != nil {
				t.Error(err)
			}
		}},
		{"recharacterize", func(t *testing.T, e *Ecosystem) {
			d, err := e.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
			if err != nil {
				t.Error(err)
				return
			}
			if err := d.RecharacterizeNow(); err != nil {
				t.Error(err)
			}
		}},
		{"pattern-test", func(t *testing.T, e *Ecosystem) {
			for _, dom := range e.Mem.RelaxedDomains() {
				e.Mem.RunPatternTest(dom, rng.New(5))
			}
		}},
		{"reindex", func(t *testing.T, e *Ecosystem) { e.Mem.Reindex() }},
		{"protect", func(t *testing.T, e *Ecosystem) {
			e.Hypervisor.Objects().Protect(hypervisor.CatVDSO, hypervisor.CatInit)
		}},
		{"protect-objects", func(t *testing.T, e *Ecosystem) {
			e.Hypervisor.Objects().ProtectObjects([]int{0, 100, 16000})
		}},
		{"runtime-windows", func(t *testing.T, e *Ecosystem) {
			for range 75 { // past the one-hour threshold window
				e.RuntimeWindow(workload.WebFrontend())
			}
		}},
	}

	const goroutines, reps = 2, 2
	results := make([][]string, goroutines)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, w := range writers {
			w.do(t, eco)
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			arena := NewRestoreArena()
			for r := 0; r < reps; r++ {
				for _, w := range writers {
					e, err := snap.RestoreInto(arena, RestoreOptions{})
					if err != nil {
						t.Error(err)
						return
					}
					w.do(t, e)
					results[g] = append(results[g], w.name+" "+sharedStateDigest(e))
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if after := snapshotDigest(t, snap); after != before {
		t.Fatalf("snapshot changed under writers:\nbefore %s\nafter  %s", before, after)
	}
	for i := range results[0] {
		if results[0][i] != results[1][i] {
			t.Fatalf("goroutines diverged on %q vs %q", results[0][i], results[1][i])
		}
		if i >= len(writers) && results[0][i] != results[0][i-len(writers)] {
			t.Fatalf("rep %d of %s diverged from rep 0", i/len(writers), writers[i%len(writers)].name)
		}
	}
}

// TestStampSharesWithTemplate pins the sharing itself, seen from core:
// two arenas stamped from one snapshot read the same weak-cell, object
// and health-vector storage, cold stamps included; a write gives one
// arena a private object inventory while its weak cells, which pattern
// tests and VRT toggles never write, and its stamped health vectors,
// which recording never writes, stay shared; and its next stamp shares
// again. (The DRAM telegraph bitset's copy-on-write is pinned inside
// dram.)
func TestStampSharesWithTemplate(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 29)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewRestoreArena(), NewRestoreArena()
	// a is stamped cold and then warm, b only cold: both share.
	for _, ar := range []*RestoreArena{a, a, b} {
		if _, err := snap.RestoreInto(ar, RestoreOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// The first stamped health vector carrying sensor readings: its
	// readings live in the image, so two stamps read the same ones.
	comp := snap.img.Health.Comps[0].Name
	firstReading := func(e *Ecosystem) *telemetry.Reading {
		for _, v := range e.Health.Query(comp, time.Time{}) {
			if len(v.Sensors) > 0 {
				return &v.Sensors[0]
			}
		}
		t.Fatalf("no stamped %s vector carries sensor readings", comp)
		return nil
	}
	same := func() (weak, objs bool) {
		oa, ob := a.eco.Hypervisor.Objects().Objects, b.eco.Hypervisor.Objects().Objects
		if firstReading(a.eco) != firstReading(b.eco) {
			t.Fatal("stamps do not share their health vectors")
		}
		return a.eco.Mem.Domains[1].DIMMs[0].SameCells(b.eco.Mem.Domains[1].DIMMs[0]), &oa[0] == &ob[0]
	}
	if w, o := same(); !w || !o {
		t.Fatalf("stamps do not share: weak cells %t, objects %t", w, o)
	}
	d, err := a.eco.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RecharacterizeNow(); err != nil {
		t.Fatal(err)
	}
	a.eco.Hypervisor.Objects().Protect(hypervisor.CatPCI)
	if w, o := same(); !w || o {
		t.Fatalf("after a re-characterization and a protection: weak cells shared %t (want true), objects shared %t (want false)", w, o)
	}
	if _, err := snap.RestoreInto(a, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if w, o := same(); !w || !o {
		t.Fatalf("re-stamp after a write does not share again: weak cells %t, objects %t", w, o)
	}
}

// stampRunAllocBudget and stampRunBytesBudget fence one node's full
// arena cycle as the fleet runs it — warm stamp, Reseed, mode entry,
// the runtime windows, the summary — with two archetypes of different
// part models alternating on one arena. The stamp-only fence above
// re-stamps one snapshot back to back and so cannot see churn that
// only shows across a node's runtime or across archetype switches
// (histories swept and rebuilt, health vectors outgrowing their
// slices). Measured at 30 windows: 66 allocs and ~2.5 KB per node;
// before the shared stamp and the reusable health histories, 97 allocs
// and ~72 KB, which both budgets refuse.
const (
	stampRunWindows     = 30
	stampRunAllocBudget = 80
	stampRunBytesBudget = 8 << 10
)

func TestStampRunCycleAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	snaps := make([]*Snapshot, 0, 2)
	for _, part := range []cpu.PartSpec{cpu.PartI5_4200U(), cpu.PartI7_3970X()} {
		opts := smallOptions(31)
		opts.SetPart(part)
		eco, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eco.PreDeployment(); err != nil {
			t.Fatal(err)
		}
		snap, err := eco.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	arena := NewRestoreArena()
	seed := uint64(0)
	cycle := func() {
		for _, snap := range snaps {
			seed++
			eco, err := snap.RestoreInto(arena, RestoreOptions{AmbientCPUC: 30, AmbientDIMMC: 36})
			if err != nil {
				t.Fatal(err)
			}
			if err := eco.Reseed(seed); err != nil {
				t.Fatal(err)
			}
			d, err := eco.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < stampRunWindows; w++ {
				if _, err := d.Step(); err != nil {
					t.Fatal(err)
				}
				if _, err := eco.PredictedFailProb(); err != nil {
					t.Fatal(err)
				}
			}
			_ = d.Summary()
		}
	}
	// Warm the arena on both archetypes first.
	cycle()
	cycle()

	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	nodes := float64(runs * len(snaps))
	allocs := float64(after.Mallocs-before.Mallocs) / nodes
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / nodes
	t.Logf("stamp+run cycle: %.1f allocs, %.0f bytes per node (budgets %d, %d)",
		allocs, bytes, stampRunAllocBudget, stampRunBytesBudget)
	if allocs > stampRunAllocBudget {
		t.Errorf("stamp+run cycle allocates %.1f times per node, budget %d", allocs, stampRunAllocBudget)
	}
	if bytes > stampRunBytesBudget {
		t.Errorf("stamp+run cycle allocates %.0f bytes per node, budget %d", bytes, stampRunBytesBudget)
	}
}
