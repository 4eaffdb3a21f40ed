// Command characterize regenerates the hardware characterization of
// the paper: Table 1 (the manufacturers' voltage guardbands), Figure 1
// (the performance bins of a fabricated population), Table 2 (CPU
// undervolting on the i5-4200U and i7-3970X) and the Section 6.B DRAM
// refresh-relaxation sweep. Figure 1 uses its benchmark's fixed seed,
// so -seed moves only Table 2 and the DRAM sweep.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/power"
	"uniserver/internal/rng"
	"uniserver/internal/silicon"
	"uniserver/internal/vfr"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("characterize: ")

	seed := flag.Uint64("seed", 42, "simulation seed")
	runs := flag.Int("runs", 3, "consecutive runs per benchmark (paper: 3)")
	what := flag.String("what", "all", "what to characterize: cpu | dram | all")
	flag.Parse()
	if *what != "cpu" && *what != "dram" && *what != "all" {
		log.Fatalf("-what %q: want cpu, dram or all", *what)
	}
	if *runs < 1 {
		log.Fatalf("-runs %d: want at least 1", *runs)
	}

	if *what == "cpu" || *what == "all" {
		printGuardbands()
		printBins()
		characterizeCPU(*seed, *runs)
	}
	if *what == "dram" || *what == "all" {
		characterizeDRAM(*seed)
	}
}

func printGuardbands() {
	fmt.Println("== Table 1: sources of variation and voltage guardbands ==")
	gs := vfr.Table1Guardbands()
	for _, g := range gs {
		fmt.Printf("%-25s ~%.0f%%\n", g.Source, g.Pct)
	}
	fmt.Printf("%-25s ~%.0f%%\n\n", "total", vfr.TotalGuardbandPct(gs))
}

// printBins bins 2000 fabricated 4-core parts at the i5-4200U's
// nominal point, as BenchmarkFigure1PerformanceBins does.
func printBins() {
	nominal := vfr.Point{VoltageMV: 844, FreqMHz: 2600}
	ladder := silicon.BinLadder(3600, 100, 12)
	pop := silicon.BinPopulation(silicon.Process28nm(), 2000, 4, nominal, ladder, rng.New(47))
	fmt.Printf("== Figure 1: performance bins of %d fabricated 4-core parts at %s ==\n", pop.Total, nominal)
	for _, bin := range ladder {
		if n := pop.PerBin[bin.GradeMHz]; n > 0 {
			fmt.Printf("%5d MHz  %4d parts\n", bin.GradeMHz, n)
		}
	}
	fmt.Printf("discarded: %d (yield %.1f%%): each chip is intrinsically different\n\n",
		pop.Discarded, pop.Yield()*100)
}

func characterizeCPU(seed uint64, runs int) {
	fmt.Println("== Table 2: undervolt characterization, 8 SPEC CPU2006 benchmarks ==")
	suite := cpu.SPECSuite()
	for _, spec := range []cpu.PartSpec{cpu.PartI5_4200U(), cpu.PartI7_3970X()} {
		fmt.Printf("\n%s (nominal %s, %d cores, %d runs/benchmark)\n",
			spec.Model, spec.Nominal, spec.Cores, runs)
		row := cpu.Characterize(spec, suite, runs, seed)
		fmt.Print(row)
	}
	fmt.Println("\npaper: i5 crash -10%/-11.2%, core-to-core 0%/2.7%, ECC 1..17 (~15mV onset);")
	fmt.Println("       i7 crash -8.4%/-15.4%, core-to-core 3.7%/8%, ECC not exposed")
}

func characterizeDRAM(seed uint64) {
	fmt.Println("\n== Section 6.B: DRAM refresh-rate relaxation (8GB DDR3 DIMMs) ==")
	cfg := dram.Config{Channels: 4, DIMMsPerChannel: 1, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45}
	ms, err := dram.New(cfg, dram.DefaultRetentionModel(), rng.New(seed))
	if err != nil {
		log.Fatal(err)
	}
	intervals := []time.Duration{
		64 * time.Millisecond, 128 * time.Millisecond, 256 * time.Millisecond,
		512 * time.Millisecond, time.Second, 1500 * time.Millisecond,
		2 * time.Second, 3 * time.Second, 4 * time.Second, 5 * time.Second,
	}
	points, err := ms.CharacterizeRefresh(intervals, 3, rng.New(seed+1))
	if err != nil {
		log.Fatal(err)
	}
	refresh := power.DRAMRefreshModel{DeviceGb: cfg.DeviceGb, TotalMemW: 10}
	fmt.Printf("%10s  %10s  %12s  %12s  %s\n", "refresh", "bit errors", "BER", "power saved", "SECDED ok")
	for _, p := range points {
		fmt.Printf("%10v  %10d  %12.2e  %11.1f%%  %v\n",
			p.Refresh, p.BitErrors, p.CumulativeBER, refresh.SavingsPct(p.Refresh), p.SECDEDSafe)
	}
	if safe, ok := dram.MaxSafeRefresh(points); ok {
		fmt.Printf("\nlongest zero-error interval: %v (paper: relaxation to 1.5s error-free;\n", safe)
		fmt.Println("BER ~1e-9 at 5s, within commercial targets and SECDED's 1e-6 capability)")
	}
}
