// Command faultinject regenerates the hypervisor experiments of
// Section 6.C: Figure 3, the hypervisor's memory footprint beside four
// LDBC guests, and Figure 4, SDC injection into the 16,820 statically
// allocated hypervisor objects, with and without VM load, plus the
// selective-protection plan the campaign implies. Figure 3 uses its
// benchmark's fixed seed, so -seed moves only Figure 4.
package main

import (
	"flag"
	"fmt"
	"log"

	"uniserver/internal/dram"
	"uniserver/internal/faultinject"
	"uniserver/internal/hypervisor"
	"uniserver/internal/rng"
	"uniserver/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("faultinject: ")

	seed := flag.Uint64("seed", 42, "simulation seed")
	runs := flag.Int("runs", faultinject.PaperRuns, "independent executions per object (paper: 5)")
	protect := flag.Bool("protect", true, "also evaluate the derived selective-protection plan")
	flag.Parse()

	footprint, err := figure3()
	if err != nil {
		log.Fatal(err)
	}
	om := hypervisor.NewObjectMap(hypervisor.DefaultProfiles(), rng.New(*seed))
	loaded, unloaded, err := faultinject.Figure4(om, *runs, rng.New(*seed))
	if err != nil {
		log.Fatal(err)
	}

	printFootprint(footprint)
	fmt.Println("== Figure 4: hypervisor fatal failures under SDC injection ==")
	fmt.Printf("%-10s  %-14s  %-14s\n", "category", "with workload", "no workload")
	for _, c := range hypervisor.Categories() {
		fmt.Printf("%-10s  %-14d  %-14d\n", c, loaded.Failures[c], unloaded.Failures[c])
	}
	fmt.Printf("\ntotal: %d loaded vs %d unloaded (%.1fx amplification; paper: ~10x)\n",
		loaded.Total, unloaded.Total, faultinject.LoadAmplification(loaded, unloaded))
	top := faultinject.SensitiveCategories(loaded)[:3]
	fmt.Printf("most sensitive: %v (paper: fs, kernel, net)\n", top)

	if *protect {
		plan := faultinject.PlanProtection(loaded, 0.15)
		covered := plan.Apply(om)
		after, err := faultinject.RunCampaign(om, true, *runs, rng.New(*seed+1))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nselective protection: %d objects covered (%.1f KiB checkpoints)\n",
			covered, float64(om.ProtectedBytes())/1024)
		fmt.Printf("fatal failures after protection: %d (%.1f%% reduction), %d corruptions restored\n",
			after.Total, 100*(1-float64(after.Total)/float64(loaded.Total)), after.Restored)
	}
}

// printFootprint prints the Figure 3 series at its first and last
// window and wherever the number of running guests changes.
func printFootprint(res hypervisor.FootprintResult) {
	fmt.Println("== Figure 3: hypervisor footprint beside 4 LDBC guests ==")
	fmt.Printf("%6s  %3s  %14s  %9s  %9s\n", "window", "VMs", "hypervisor MiB", "guest MiB", "footprint")
	for i, s := range res.Samples {
		if i == 0 || i == len(res.Samples)-1 || s.RunningVMs != res.Samples[i-1].RunningVMs {
			fmt.Printf("%6d  %3d  %14d  %9d  %8.2f%%\n", s.Window, s.RunningVMs, s.HypervisorBytes>>20, s.GuestBytes>>20, s.RatioPct)
		}
	}
	fmt.Printf("max footprint: %.2f%% of utilized memory (paper: < 7%%)\n\n", res.MaxRatio)
}

// figure3 runs the Figure 3 experiment, 4 LDBC guests over 96 windows,
// on the host BenchmarkFigure3HypervisorFootprint builds: the default
// hypervisor over 4 channels of two 8 GiB DIMMs.
func figure3() (hypervisor.FootprintResult, error) {
	om := hypervisor.NewObjectMap(hypervisor.DefaultProfiles(), rng.New(29))
	mem, err := dram.New(dram.Config{Channels: 4, DIMMsPerChannel: 2, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45},
		dram.DefaultRetentionModel(), rng.New(29))
	if err != nil {
		return hypervisor.FootprintResult{}, err
	}
	h, err := hypervisor.New(hypervisor.DefaultConfig(), om, mem)
	if err != nil {
		return hypervisor.FootprintResult{}, err
	}
	return hypervisor.FootprintExperiment(h, 4, 96, workload.LDBCSocialNetwork())
}
