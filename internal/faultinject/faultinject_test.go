package faultinject

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"uniserver/internal/hypervisor"
	"uniserver/internal/rng"
)

func objectMap(seed uint64) *hypervisor.ObjectMap {
	return hypervisor.NewObjectMap(hypervisor.DefaultProfiles(), rng.New(seed))
}

func TestValidation(t *testing.T) {
	if _, err := RunCampaign(nil, true, 5, rng.New(1)); err == nil {
		t.Fatal("nil object map accepted")
	}
	if _, err := RunCampaign(objectMap(1), true, 0, rng.New(1)); err == nil {
		t.Fatal("zero runs accepted")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a, err := RunCampaign(objectMap(2), true, PaperRuns, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(objectMap(2), true, PaperRuns, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total {
		t.Fatalf("campaign not deterministic: %d vs %d", a.Total, b.Total)
	}
	for _, c := range hypervisor.Categories() {
		if a.Failures[c] != b.Failures[c] {
			t.Fatalf("category %s diverged", c)
		}
	}
}

// TestFigure4Shape verifies the paper's Figure 4 observations:
// (1) active VMs amplify fatal failures by roughly an order of
// magnitude, (2) fs, kernel and net dominate in both conditions,
// (3) the sensitive categories are the same regardless of load.
func TestFigure4Shape(t *testing.T) {
	om := objectMap(42)
	loaded, unloaded, err := Figure4(om, PaperRuns, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Objects != hypervisor.TotalObjects || loaded.Runs != PaperRuns {
		t.Fatalf("campaign shape wrong: %+v", loaded)
	}

	amp := LoadAmplification(loaded, unloaded)
	if amp < 6 || amp > 16 {
		t.Errorf("load amplification = %.1fx, paper saw ~10x", amp)
	}

	topLoaded := SensitiveCategories(loaded)[:3]
	topUnloaded := SensitiveCategories(unloaded)[:3]
	sensitive := map[hypervisor.Category]bool{
		hypervisor.CatFS: true, hypervisor.CatKernel: true, hypervisor.CatNet: true,
	}
	for _, c := range topLoaded {
		if !sensitive[c] {
			t.Errorf("loaded top-3 contains %s, want fs/kernel/net", c)
		}
	}
	// Same sensitive set irrespective of load.
	for _, c := range topUnloaded {
		if !sensitive[c] {
			t.Errorf("unloaded top-3 contains %s, want fs/kernel/net", c)
		}
	}

	// Magnitudes in the figure's ballpark: loaded max ~3000-3500,
	// unloaded max ~200-350.
	maxLoaded := loaded.Failures[topLoaded[0]]
	if maxLoaded < 2000 || maxLoaded > 4500 {
		t.Errorf("loaded peak failures = %d, want ~3300", maxLoaded)
	}
	maxUnloaded := unloaded.Failures[topUnloaded[0]]
	if maxUnloaded < 120 || maxUnloaded > 600 {
		t.Errorf("unloaded peak failures = %d, want ~300", maxUnloaded)
	}

	// Insensitive categories stay tiny.
	for _, c := range []hypervisor.Category{hypervisor.CatInit, hypervisor.CatVDSO, hypervisor.CatPCI} {
		if loaded.Failures[c] > maxLoaded/20 {
			t.Errorf("category %s unexpectedly sensitive: %d failures", c, loaded.Failures[c])
		}
	}
}

func TestCrucialMarkingSubsetOfTruth(t *testing.T) {
	om := objectMap(7)
	rep, err := RunCampaign(om, true, PaperRuns, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MarkedCrucial) == 0 {
		t.Fatal("campaign marked nothing crucial")
	}
	for i, id := range rep.MarkedCrucial {
		if !om.Objects[id].Crucial {
			t.Fatalf("object %d marked crucial but is not", id)
		}
		if i > 0 && id <= rep.MarkedCrucial[i-1] {
			t.Fatalf("crucial IDs not strictly ascending: %d after %d", id, rep.MarkedCrucial[i-1])
		}
	}
	// More runs mark at least as many objects.
	om2 := objectMap(7)
	rep2, err := RunCampaign(om2, true, PaperRuns*4, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.MarkedCrucial) < len(rep.MarkedCrucial) {
		t.Fatal("more runs should not mark fewer objects")
	}
}

func TestLoadAmplificationZeroDenominator(t *testing.T) {
	if LoadAmplification(Report{Total: 5}, Report{Total: 0}) != 0 {
		t.Fatal("zero-unloaded amplification should be 0")
	}
}

// TestSelectiveProtectionEffectiveness is the Section 6.C payoff: a
// protection plan derived from one campaign eliminates nearly all
// fatal failures in a subsequent campaign, at a checkpoint cost far
// below protecting everything.
func TestSelectiveProtectionEffectiveness(t *testing.T) {
	om := objectMap(11)
	baseline, err := RunCampaign(om, true, PaperRuns, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanProtection(baseline, 0.15)
	if len(plan.ObjectIDs) == 0 {
		t.Fatal("empty protection plan")
	}
	covered := plan.Apply(om)
	if covered == 0 {
		t.Fatal("plan covered nothing")
	}

	protected, err := RunCampaign(om, true, PaperRuns, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	reduction := 1 - float64(protected.Total)/float64(baseline.Total)
	if reduction < 0.90 {
		t.Fatalf("protection reduced failures by only %.1f%%, want >= 90%%", reduction*100)
	}
	if protected.Restored == 0 {
		t.Fatal("protection never exercised")
	}
	// Selectivity: the checkpoint set must cost materially less than
	// the static object state (and far less than full-hypervisor
	// checkpointing, which would also cover the dynamic overhead).
	if float64(om.ProtectedBytes()) > 0.7*float64(om.StaticBytes()) {
		t.Fatalf("protection covers %d of %d bytes; not selective",
			om.ProtectedBytes(), om.StaticBytes())
	}
}

func TestPlanProtectionCategories(t *testing.T) {
	rep := Report{
		Total: 100,
		Failures: map[hypervisor.Category]int{
			hypervisor.CatFS:     60,
			hypervisor.CatKernel: 30,
			hypervisor.CatVDSO:   10,
		},
		MarkedCrucial: []int{1, 3},
	}
	plan := PlanProtection(rep, 0.25)
	if len(plan.Categories) != 2 {
		t.Fatalf("categories = %v", plan.Categories)
	}
	if !slices.Equal(plan.ObjectIDs, []int{1, 3}) {
		t.Fatalf("object ids = %v, want the report's [1 3]", plan.ObjectIDs)
	}
	empty := PlanProtection(Report{}, 0.5)
	if len(empty.ObjectIDs) != 0 || len(empty.Categories) != 0 {
		t.Fatal("empty report produced non-empty plan")
	}
}

// refRunCampaign is RunCampaign as it was before the category runs:
// an access-probability lookup and a map write per object, and the
// crucial IDs as a set. It is the reference the run-wise campaign must
// match outcome for outcome and draw for draw.
func refRunCampaign(om *hypervisor.ObjectMap, loaded bool, runs int, src *rng.Source) (Report, map[int]bool) {
	r := Report{Runs: runs, Objects: om.Len(), Failures: make(map[hypervisor.Category]int)}
	crucial := make(map[int]bool)
	for _, obj := range om.Objects {
		p := om.AccessProb(obj.Category, loaded)
		for run := 0; run < runs; run++ {
			if !src.Bernoulli(p) {
				continue
			}
			if obj.Protected {
				r.Restored++
				continue
			}
			if obj.Crucial {
				r.Failures[obj.Category]++
				r.Total++
				crucial[obj.ID] = true
			}
		}
	}
	return r, crucial
}

// handBuilt fabricates an inventory whose categories recur in
// non-contiguous stretches (fs, net, fs, ...), from repeated profiles,
// and protects a random fifth of its objects.
func handBuilt(seed uint64) *hypervisor.ObjectMap {
	gen := rng.New(seed)
	var profiles []hypervisor.CategoryProfile
	for _, c := range []hypervisor.Category{hypervisor.CatFS, hypervisor.CatNet, hypervisor.CatFS,
		hypervisor.CatVDSO, hypervisor.CatNet, hypervisor.CatFS} {
		profiles = append(profiles, hypervisor.CategoryProfile{Category: c, Count: 1 + gen.Intn(300),
			CrucialFrac: 0.5, AccessLoaded: 0.4, AccessUnloaded: 0.05, MeanObjectBytes: 64})
	}
	om := hypervisor.NewObjectMap(profiles, gen)
	var ids []int
	for id := range om.Len() {
		if gen.Bernoulli(0.2) {
			ids = append(ids, id)
		}
	}
	om.ProtectObjects(ids)
	return om
}

// TestCampaignMatchesReference drives RunCampaign and the per-object
// reference over generated and fabricated inventories, at 1 and 5 runs,
// loaded and unloaded: the failures, total, restorations, crucial IDs
// (ascending) and the stream position must be identical.
func TestCampaignMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		om := handBuilt(seed)
		if seed%4 == 0 { // a fabricated inventory, one category protected
			om = objectMap(seed)
			om.Protect(hypervisor.CatKernel)
		}
		for _, runs := range []int{1, PaperRuns} {
			for _, loaded := range []bool{false, true} {
				name := fmt.Sprintf("seed %d, %d runs, loaded=%t", seed, runs, loaded)
				src, refSrc := rng.New(seed+100), rng.New(seed+100)
				got, err := RunCampaign(om, loaded, runs, src)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, crucial := refRunCampaign(om, loaded, runs, refSrc)
				if !maps.Equal(got.Failures, want.Failures) || got.Total != want.Total || got.Restored != want.Restored {
					t.Fatalf("%s: failures %v total %d restored %d, reference %v %d %d",
						name, got.Failures, got.Total, got.Restored, want.Failures, want.Total, want.Restored)
				}
				if ids := slices.Sorted(maps.Keys(crucial)); !slices.Equal(got.MarkedCrucial, ids) {
					t.Fatalf("%s: crucial IDs %v, reference %v", name, got.MarkedCrucial, ids)
				}
				if src.State() != refSrc.State() {
					t.Fatalf("%s: stream at %#x, reference %#x", name, src.State(), refSrc.State())
				}
			}
		}
	}
}

func BenchmarkFigure4Campaign(b *testing.B) {
	om := objectMap(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Figure4(om, PaperRuns, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
