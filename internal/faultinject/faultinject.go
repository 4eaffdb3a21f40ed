// Package faultinject implements the QEMU-style fault-injection
// campaigns of Section 6.C: for each statically allocated hypervisor
// object, inject Silent Data Corruptions (SDCs) in independent
// executions and check whether the corruption leaves the hypervisor
// non-responsive, marking the object as crucial or non-crucial.
// Campaigns run both with and without VMs on top of the victim
// hypervisor, reproducing Figure 4's two series: active load drives
// roughly an order of magnitude more fatal failures, concentrated in
// the same sensitive categories (fs, kernel, net) regardless of load.
package faultinject

import (
	"errors"
	"sort"

	"uniserver/internal/hypervisor"
	"uniserver/internal/rng"
)

// PaperRuns is the number of independent executions per object used in
// the paper ("in independent executions (total 5 executions)").
const PaperRuns = 5

// Report aggregates one campaign.
type Report struct {
	Runs    int
	Objects int
	// Failures counts fatal (non-responsive hypervisor) outcomes per
	// category, summed over objects and runs; a category without one
	// has no entry.
	Failures map[hypervisor.Category]int
	// Total is the sum of Failures.
	Total int
	// MarkedCrucial lists the IDs of the objects with at least one
	// fatal outcome — the campaign's empirical criticality labels — in
	// inventory order, which is ascending: an object's ID is its
	// position (hypervisor.NewObjectMap).
	MarkedCrucial []int
	// Restored counts corruptions absorbed by selective protection.
	Restored int
}

// RunCampaign injects one SDC per object per run and observes the
// outcome window. A corruption is fatal when the object is consumed
// during the window (probability depends on category and load), the
// object is crucial, and it is not covered by selective protection
// (protected objects are detected and restored instead).
// The draws are one Bernoulli per object per run, in inventory order.
// The access probability is looked up once per stretch of consecutive
// same-category objects, whose fatal outcomes reach Failures in one
// write.
func RunCampaign(om *hypervisor.ObjectMap, loaded bool, runs int, src *rng.Source) (Report, error) {
	if om == nil {
		return Report{}, errors.New("faultinject: nil object map")
	}
	if runs <= 0 {
		return Report{}, errors.New("faultinject: runs must be positive")
	}
	r := Report{
		Runs:     runs,
		Objects:  om.Len(),
		Failures: make(map[hypervisor.Category]int),
	}
	objs := om.Objects
	for i := 0; i < len(objs); {
		c := objs[i].Category
		p := om.AccessProb(c, loaded)
		fatal := 0
		for ; i < len(objs) && objs[i].Category == c; i++ {
			consumed := 0 // runs whose corruption was consumed in the window
			for range runs {
				if src.Bernoulli(p) {
					consumed++
				}
			}
			switch obj := &objs[i]; {
			case obj.Protected:
				r.Restored += consumed
			case obj.Crucial && consumed > 0:
				fatal += consumed
				r.MarkedCrucial = append(r.MarkedCrucial, obj.ID)
			}
		}
		if fatal > 0 {
			r.Failures[c] += fatal
			r.Total += fatal
		}
	}
	return r, nil
}

// Figure4 runs the paired campaign of the paper: the same object map
// under active VMs and unloaded.
func Figure4(om *hypervisor.ObjectMap, runs int, src *rng.Source) (loaded, unloaded Report, err error) {
	loaded, err = RunCampaign(om, true, runs, src.SplitLabeled("loaded"))
	if err != nil {
		return Report{}, Report{}, err
	}
	unloaded, err = RunCampaign(om, false, runs, src.SplitLabeled("unloaded"))
	if err != nil {
		return Report{}, Report{}, err
	}
	return loaded, unloaded, nil
}

// LoadAmplification returns the ratio of total fatal failures with
// load to without load (the paper observes about an order of
// magnitude).
func LoadAmplification(loaded, unloaded Report) float64 {
	if unloaded.Total == 0 {
		return 0
	}
	return float64(loaded.Total) / float64(unloaded.Total)
}

// SensitiveCategories returns the categories ordered by descending
// failure count.
func SensitiveCategories(r Report) []hypervisor.Category {
	cats := append([]hypervisor.Category(nil), hypervisor.Categories()...)
	sort.SliceStable(cats, func(i, j int) bool {
		return r.Failures[cats[i]] > r.Failures[cats[j]]
	})
	return cats
}

// ProtectionPlan derives the selective-protection recommendation from
// a campaign: protect every object the campaign marked crucial, plus
// optionally whole categories whose failure share exceeds
// shareThreshold (0..1).
type ProtectionPlan struct {
	ObjectIDs  []int
	Categories []hypervisor.Category
}

// PlanProtection builds the plan from a report. The plan's ObjectIDs
// is the report's MarkedCrucial, already ascending, and shares its
// storage.
func PlanProtection(r Report, shareThreshold float64) ProtectionPlan {
	plan := ProtectionPlan{ObjectIDs: r.MarkedCrucial}
	if r.Total > 0 && shareThreshold > 0 {
		for _, c := range hypervisor.Categories() {
			if float64(r.Failures[c])/float64(r.Total) >= shareThreshold {
				plan.Categories = append(plan.Categories, c)
			}
		}
	}
	return plan
}

// Apply installs the plan on the object map and returns the number of
// newly protected objects.
func (p ProtectionPlan) Apply(om *hypervisor.ObjectMap) int {
	n := om.ProtectObjects(p.ObjectIDs)
	n += om.Protect(p.Categories...)
	return n
}
