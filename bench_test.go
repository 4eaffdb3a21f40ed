// Benchmark harness regenerating every table and figure of the
// paper's evaluation (Section 6), plus ablation benches for the design
// choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the full experiment per iteration and
// reports the headline quantities as custom metrics, so `-bench`
// output is a machine-readable record of the reproduction. The rows
// themselves are logged once per run via b.Logf (visible with -v).
package uniserver_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"testing"
	"time"

	"uniserver/internal/benchhist"
	"uniserver/internal/core"
	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/edge"
	"uniserver/internal/faultinject"
	"uniserver/internal/fleet"
	"uniserver/internal/hypervisor"
	"uniserver/internal/openstack"
	"uniserver/internal/power"
	"uniserver/internal/rng"
	"uniserver/internal/scenario"
	"uniserver/internal/silicon"
	"uniserver/internal/stress"
	"uniserver/internal/tco"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// BenchmarkTable1GuardbandSources regenerates Table 1: the voltage
// guardband decomposition (droops ~20%, Vmin ~15%, core-to-core ~5%).
func BenchmarkTable1GuardbandSources(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		gs := vfr.Table1Guardbands()
		total = vfr.TotalGuardbandPct(gs)
	}
	b.ReportMetric(total, "guardband_%")
	b.Logf("Table 1: sources of variations and voltage guard-bands")
	for _, g := range vfr.Table1Guardbands() {
		b.Logf("  %-25s ~%.0f%%", g.Source, g.Pct)
	}
}

// BenchmarkTable2CPUCharacterization regenerates Table 2: the
// undervolt characterization of the i5-4200U and i7-3970X (crash
// points, core-to-core variation, cache ECC errors).
func BenchmarkTable2CPUCharacterization(b *testing.B) {
	suite := cpu.SPECSuite()
	var i5, i7 cpu.Table2Row
	for i := 0; i < b.N; i++ {
		i5 = cpu.Characterize(cpu.PartI5_4200U(), suite, 3, 42)
		i7 = cpu.Characterize(cpu.PartI7_3970X(), suite, 3, 42)
	}
	b.ReportMetric(i5.CrashMinPct, "i5_crash_min_%")
	b.ReportMetric(i5.CrashMaxPct, "i5_crash_max_%")
	b.ReportMetric(i7.CrashMinPct, "i7_crash_min_%")
	b.ReportMetric(i7.CrashMaxPct, "i7_crash_max_%")
	b.ReportMetric(float64(i5.ECCMax), "i5_ecc_max")
	b.Logf("Table 2 (paper: i5 -10/-11.2%%, 0/2.7%%, ECC 1..17; i7 -8.4/-15.4%%, 3.7/8%%)\n%s%s", i5, i7)
}

// BenchmarkDRAMRefreshCharacterization regenerates the Section 6.B
// DRAM experiment: refresh relaxed from 64 ms with no errors through
// 1.5 s, BER ~1e-9 at 5 s, within SECDED's 1e-6 capability.
func BenchmarkDRAMRefreshCharacterization(b *testing.B) {
	cfg := dram.Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45}
	intervals := []time.Duration{
		64 * time.Millisecond, 512 * time.Millisecond, time.Second,
		1500 * time.Millisecond, 3 * time.Second, 5 * time.Second,
	}
	var points []dram.SweepPoint
	for i := 0; i < b.N; i++ {
		ms, err := dram.New(cfg, dram.DefaultRetentionModel(), rng.New(19))
		if err != nil {
			b.Fatal(err)
		}
		points, err = ms.CharacterizeRefresh(intervals, 3, rng.New(2))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.Logf("refresh %8v: %3d bit errors, BER %.2e, SECDED-safe=%v",
			p.Refresh, p.BitErrors, p.CumulativeBER, p.SECDEDSafe)
	}
	safe, _ := dram.MaxSafeRefresh(points)
	b.ReportMetric(safe.Seconds(), "zero_error_refresh_s")
	b.ReportMetric(points[len(points)-1].CumulativeBER*1e9, "ber_at_5s_1e-9")
	refresh := power.DRAMRefreshModel{DeviceGb: 2, TotalMemW: 10}
	b.ReportMetric(refresh.SavingsPct(1500*time.Millisecond), "power_savings_%_at_1.5s")
}

// BenchmarkFigure1PerformanceBins regenerates Figure 1: a fabricated
// population spreads over distinct performance bins.
func BenchmarkFigure1PerformanceBins(b *testing.B) {
	nominal := vfr.Point{VoltageMV: 844, FreqMHz: 2600}
	ladder := silicon.BinLadder(3600, 100, 12)
	var stats silicon.PopulationStats
	for i := 0; i < b.N; i++ {
		stats = silicon.BinPopulation(silicon.Process28nm(), 2000, 4, nominal, ladder, rng.New(47))
	}
	b.ReportMetric(float64(len(stats.PerBin)), "distinct_bins")
	b.ReportMetric(stats.Yield()*100, "yield_%")
	for _, bin := range ladder {
		if n := stats.PerBin[bin.GradeMHz]; n > 0 {
			b.Logf("bin %4d MHz: %4d parts", bin.GradeMHz, n)
		}
	}
	b.Logf("discarded: %d of %d", stats.Discarded, stats.Total)
}

// BenchmarkFigure3HypervisorFootprint regenerates Figure 3: four LDBC
// VM instances; hypervisor footprint stays under 7% of utilized
// memory.
func BenchmarkFigure3HypervisorFootprint(b *testing.B) {
	var res hypervisor.FootprintResult
	for i := 0; i < b.N; i++ {
		om := hypervisor.NewObjectMap(hypervisor.DefaultProfiles(), rng.New(29))
		mem, err := dram.New(dram.Config{Channels: 4, DIMMsPerChannel: 2, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45},
			dram.DefaultRetentionModel(), rng.New(29))
		if err != nil {
			b.Fatal(err)
		}
		h, err := hypervisor.New(hypervisor.DefaultConfig(), om, mem)
		if err != nil {
			b.Fatal(err)
		}
		res, err = hypervisor.FootprintExperiment(h, 4, 96, workload.LDBCSocialNetwork())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MaxRatio, "max_footprint_%")
	b.Logf("Figure 3: max hypervisor footprint %.2f%% of utilized memory (paper: < 7%%), claim holds: %v",
		res.MaxRatio, res.Claim7Pct)
}

// BenchmarkFigure4FaultInjectionCampaign regenerates Figure 4: SDC
// injection into 16,820 hypervisor objects x 5 runs, loaded and
// unloaded.
func BenchmarkFigure4FaultInjectionCampaign(b *testing.B) {
	var loaded, unloaded faultinject.Report
	for i := 0; i < b.N; i++ {
		om := hypervisor.NewObjectMap(hypervisor.DefaultProfiles(), rng.New(42))
		var err error
		loaded, unloaded, err = faultinject.Figure4(om, faultinject.PaperRuns, rng.New(42))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(loaded.Total), "failures_loaded")
	b.ReportMetric(float64(unloaded.Total), "failures_unloaded")
	b.ReportMetric(faultinject.LoadAmplification(loaded, unloaded), "load_amplification_x")
	b.Logf("Figure 4 (paper: ~10x more failures with workload; fs/kernel/net sensitive)")
	for _, c := range hypervisor.Categories() {
		b.Logf("  %-10s loaded %4d   unloaded %3d", c, loaded.Failures[c], unloaded.Failures[c])
	}
}

// BenchmarkTable3TCOProjection regenerates Table 3: EE sources
// 1.5 x 4 x 2 x 3 = 36x overall, 1.15x TCO from energy alone.
func BenchmarkTable3TCOProjection(b *testing.B) {
	var p tco.Table3Projection
	var err error
	for i := 0; i < b.N; i++ {
		p, err = tco.ProjectTable3(tco.DefaultCloudDC(), tco.Table3Gains())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.OverallEE, "overall_ee_x")
	b.ReportMetric(p.TCOImprovement, "tco_improvement_x")
	b.Logf("Table 3: %s", p)
}

// BenchmarkEdgeEnergyProjection regenerates the Section 6.D worked
// example: edge runs the 200 ms service at ~50% frequency / 70%
// voltage for ~75% less power and ~50% less energy.
func BenchmarkEdgeEnergyProjection(b *testing.B) {
	var c edge.Comparison
	var err error
	for i := 0; i < b.N; i++ {
		c, err = edge.Compare(edge.PaperExample(), edge.DefaultCloud(), edge.DefaultEdge())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(c.EdgeFreqScale, "edge_freq_scale")
	b.ReportMetric((1-c.EdgePowerScale)*100, "power_savings_%")
	b.ReportMetric((1-c.EdgeEnergyScale)*100, "energy_savings_%")
	b.Logf("Section 6.D: edge freq %.2fx, power -%.0f%%, energy -%.0f%% (paper: -75%%, -50%%)",
		c.EdgeFreqScale, (1-c.EdgePowerScale)*100, (1-c.EdgeEnergyScale)*100)
}

// --- Ablations -------------------------------------------------------

// BenchmarkAblationReliableDomain compares kernel exposure with and
// without the reliable-domain placement at a 5 s relaxed refresh.
func BenchmarkAblationReliableDomain(b *testing.B) {
	cfg := dram.Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45}
	var protectedExp, unprotectedExp float64
	for i := 0; i < b.N; i++ {
		ms, err := dram.New(cfg, dram.DefaultRetentionModel(), rng.New(47))
		if err != nil {
			b.Fatal(err)
		}
		for _, dom := range ms.RelaxedDomains() {
			if err := dom.SetRefresh(5 * time.Second); err != nil {
				b.Fatal(err)
			}
		}
		al := dram.NewAllocator(ms)
		if _, err := al.Alloc("kernel", dram.CriticalityKernel, 1<<16); err != nil {
			b.Fatal(err)
		}
		if _, err := al.Alloc("kernel-unprotected", dram.CriticalityNormal, 1<<16); err != nil {
			b.Fatal(err)
		}
		protectedExp, unprotectedExp = 0, 0
		for _, e := range al.Exposure() {
			switch e.Owner {
			case "kernel":
				protectedExp += e.ExpectedErrors
			case "kernel-unprotected":
				unprotectedExp += e.ExpectedErrors
			}
		}
	}
	b.ReportMetric(protectedExp, "kernel_exp_errors_reliable")
	b.ReportMetric(unprotectedExp, "kernel_exp_errors_relaxed")
	b.Logf("reliable-domain kernel exposure %.3g vs relaxed placement %.3g errors/window",
		protectedExp, unprotectedExp)
}

// BenchmarkAblationSelectiveProtection compares fatal-failure counts
// across protection strategies: none, selective (campaign-derived),
// and full checkpointing, with the checkpoint byte cost of each.
func BenchmarkAblationSelectiveProtection(b *testing.B) {
	var none, selective, full int
	var selBytes, fullBytes uint64
	for i := 0; i < b.N; i++ {
		baselineOM := hypervisor.NewObjectMap(hypervisor.DefaultProfiles(), rng.New(11))
		baseline, err := faultinject.RunCampaign(baselineOM, true, faultinject.PaperRuns, rng.New(11))
		if err != nil {
			b.Fatal(err)
		}
		none = baseline.Total

		selOM := hypervisor.NewObjectMap(hypervisor.DefaultProfiles(), rng.New(11))
		faultinject.PlanProtection(baseline, 0.15).Apply(selOM)
		selBytes = selOM.ProtectedBytes()
		rep, err := faultinject.RunCampaign(selOM, true, faultinject.PaperRuns, rng.New(12))
		if err != nil {
			b.Fatal(err)
		}
		selective = rep.Total

		fullOM := hypervisor.NewObjectMap(hypervisor.DefaultProfiles(), rng.New(11))
		fullOM.Protect(hypervisor.Categories()...)
		fullBytes = fullOM.ProtectedBytes()
		rep, err = faultinject.RunCampaign(fullOM, true, faultinject.PaperRuns, rng.New(12))
		if err != nil {
			b.Fatal(err)
		}
		full = rep.Total
	}
	b.ReportMetric(float64(none), "failures_unprotected")
	b.ReportMetric(float64(selective), "failures_selective")
	b.ReportMetric(float64(full), "failures_full")
	b.Logf("protection: none=%d selective=%d (%.1f KiB) full=%d (%.1f KiB)",
		none, selective, float64(selBytes)/1024, full, float64(fullBytes)/1024)
}

// BenchmarkAblationVirusGeneration compares the margins revealed by
// GA-evolved viruses against random kernels and real workloads: the
// virus crashes at the highest voltage, so its margin is the safe one.
func BenchmarkAblationVirusGeneration(b *testing.B) {
	var virusCrash, randomCrash, benchCrash int
	for i := 0; i < b.N; i++ {
		m := cpu.NewMachine(cpu.PartI5_4200U(), 17)
		res, err := stress.Evolve(stress.DefaultGAConfig(), stress.MaxVoltageNoise, m, 0, rng.New(11))
		if err != nil {
			b.Fatal(err)
		}
		virusCrash = cpu.WorstCrash(m.UndervoltSweep(0, res.Virus, 3)).CrashVoltageMV
		randomSrc := rng.New(13)
		randomCrash = 0
		for r := 0; r < 8; r++ {
			g := stress.Genome{
				VecFrac: randomSrc.Float64(), ALUFrac: randomSrc.Float64(),
				MemFrac: randomSrc.Float64(), BranchFrac: randomSrc.Float64(),
				NopFrac: randomSrc.Float64(), BurstPeriod: 1 + randomSrc.Intn(64),
			}
			if c := cpu.WorstCrash(m.UndervoltSweep(0, g.Express("rand"), 1)).CrashVoltageMV; c > randomCrash {
				randomCrash = c
			}
		}
		benchCrash = 0
		for _, bench := range cpu.SPECSuite() {
			if c := cpu.WorstCrash(m.UndervoltSweep(0, bench, 3)).CrashVoltageMV; c > benchCrash {
				benchCrash = c
			}
		}
	}
	b.ReportMetric(float64(virusCrash), "virus_crash_mV")
	b.ReportMetric(float64(randomCrash), "random_crash_mV")
	b.ReportMetric(float64(benchCrash), "spec_crash_mV")
	b.Logf("crash voltage: GA virus %dmV >= random kernels %dmV ~ SPEC %dmV", virusCrash, randomCrash, benchCrash)
}

// BenchmarkAblationReliabilityScheduling compares SLA violations under
// the UniServer policy (reliability metric + SLA filter + proactive
// migration) against the legacy utilization/energy-only policy.
func BenchmarkAblationReliabilityScheduling(b *testing.B) {
	run := func(policy openstack.Policy, seed uint64) openstack.SimResult {
		nodes := openstack.Fleet(8, 16, 64<<30, rng.New(seed))
		m, err := openstack.NewManager(policy, nodes...)
		if err != nil {
			b.Fatal(err)
		}
		arrivals, err := workload.Stream(workload.DefaultStreamConfig(), rng.New(seed+1))
		if err != nil {
			b.Fatal(err)
		}
		res, err := openstack.RunStream(m, arrivals, openstack.DefaultSimConfig(), rng.New(seed+2))
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var uni, legacy openstack.SimResult
	for i := 0; i < b.N; i++ {
		uni = run(openstack.UniServerPolicy(), 100)
		legacy = run(openstack.LegacyPolicy(), 100)
	}
	b.ReportMetric(float64(uni.SLAViolations), "uniserver_sla_violations")
	b.ReportMetric(float64(legacy.SLAViolations), "legacy_sla_violations")
	b.ReportMetric(float64(uni.Migrations), "uniserver_migrations")
	b.Logf("24h stream: UniServer %d violations (%d migrations) vs legacy %d violations",
		uni.SLAViolations, uni.Migrations, legacy.SLAViolations)
}

// BenchmarkAblationPredictorGuidance compares crash rates at the
// predictor-advised point against a fixed aggressive undervolt and
// nominal guardbands, at matched window counts.
func BenchmarkAblationPredictorGuidance(b *testing.B) {
	var advisedCrashes, aggressiveCrashes int
	var advisedSavings float64
	for i := 0; i < b.N; i++ {
		m := cpu.NewMachine(cpu.PartI5_4200U(), 23)
		margins := cpu.Margins(cpu.PartI5_4200U(), cpu.SPECSuite(), 3, 23)
		safe := margins[0].Safe
		aggressive := safe.WithVoltage(margins[0].CrashPoint.VoltageMV - 5)
		bench := cpu.SPECSuite()[1] // mcf, the droopiest
		advisedCrashes, aggressiveCrashes = 0, 0
		for w := 0; w < 200; w++ {
			if m.RunAt(0, bench, safe.VoltageMV).Crashed {
				advisedCrashes++
			}
			if m.RunAt(0, bench, aggressive.VoltageMV).Crashed {
				aggressiveCrashes++
			}
		}
		pm := power.DefaultCPUModel()
		nominal := cpu.PartI5_4200U().Nominal
		advisedSavings = 100 * (pm.TotalW(nominal, 0.7, 55) - pm.TotalW(safe, 0.7, 55)) / pm.TotalW(nominal, 0.7, 55)
	}
	b.ReportMetric(float64(advisedCrashes), "crashes_at_advised")
	b.ReportMetric(float64(aggressiveCrashes), "crashes_at_aggressive")
	b.ReportMetric(advisedSavings, "advised_power_savings_%")
	b.Logf("200 windows of mcf: advised point %d crashes (%.1f%% power saved), past-margin point %d crashes",
		advisedCrashes, advisedSavings, aggressiveCrashes)
}

// BenchmarkAblationEOPFleet compares fleet energy and SLA damage when
// every node runs at extended operating points versus nominal
// guardbands, under the UniServer policy.
func BenchmarkAblationEOPFleet(b *testing.B) {
	run := func(mode vfr.Mode, seed uint64) openstack.SimResult {
		nodes := openstack.Fleet(8, 16, 64<<30, rng.New(seed))
		for _, n := range nodes {
			n.Mode = mode
		}
		m, err := openstack.NewManager(openstack.UniServerPolicy(), nodes...)
		if err != nil {
			b.Fatal(err)
		}
		arrivals, err := workload.Stream(workload.DefaultStreamConfig(), rng.New(seed+1))
		if err != nil {
			b.Fatal(err)
		}
		res, err := openstack.RunStream(m, arrivals, openstack.DefaultSimConfig(), rng.New(seed+2))
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var eop, nominal openstack.SimResult
	for i := 0; i < b.N; i++ {
		eop = run(vfr.ModeHighPerformance, 300)
		nominal = run(vfr.ModeNominal, 300)
	}
	b.ReportMetric(eop.EnergyKWh, "eop_kwh")
	b.ReportMetric(nominal.EnergyKWh, "nominal_kwh")
	b.ReportMetric(float64(eop.SLAViolations), "eop_sla_violations")
	b.ReportMetric(float64(nominal.SLAViolations), "nominal_sla_violations")
	b.Logf("24h fleet: EOP %.1f kWh / %d violations vs nominal %.1f kWh / %d violations",
		eop.EnergyKWh, eop.SLAViolations, nominal.EnergyKWh, nominal.SLAViolations)
}

// BenchmarkFigure2EcosystemLoop exercises the full cross-layer loop of
// Figure 2 end to end: pre-deployment, mode entry, runtime windows.
func BenchmarkFigure2EcosystemLoop(b *testing.B) {
	// Figure 2 is the architecture diagram; this bench demonstrates
	// the wiring rather than a numeric series. See cmd/uniserver for
	// the narrated version.
	for i := 0; i < b.N; i++ {
		if err := runEcosystemOnce(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosedLoopDeployment runs the complete supervised lifecycle
// (characterize -> deploy -> monitor -> fallback/re-characterize, with
// aging) and reports the outcome metrics.
func BenchmarkClosedLoopDeployment(b *testing.B) {
	var sum core.DeploymentSummary
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions()
		opts.Seed = 33
		opts.Mem = dram.Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45}
		eco, err := core.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eco.PreDeployment(); err != nil {
			b.Fatal(err)
		}
		sum, err = eco.RunDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend(), 240)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sum.WindowsAtEOP), "windows_at_eop")
	b.ReportMetric(float64(sum.Crashes), "crashes")
	b.ReportMetric(sum.EnergySavedWh, "energy_saved_wh")
	b.Logf("closed loop: %d/%d windows at EOP, %d crashes, %.1f Wh saved, aging +%.1f mV",
		sum.WindowsAtEOP, sum.Windows, sum.Crashes, sum.EnergySavedWh, sum.FinalAgeShiftMV)
}

// BenchmarkFleetRuntime measures the concurrent multi-node engine:
// one iteration is a full fleet lifecycle (parallel pre-deployment
// characterization of every node, then barrier-synchronized runtime
// epochs feeding the reliability-aware scheduler). The sub-benchmarks
// vary only the worker count; the fleet summary is byte-identical
// across them (asserted once per run), so comparing their ns/op is a
// pure wall-clock speedup measurement. On a machine with 4+ cores the
// workers=4 variant should run >2x faster than workers=1.
func BenchmarkFleetRuntime(b *testing.B) {
	const (
		benchNodes   = 8
		benchWindows = 60
	)
	config := func(workers int) fleet.Config {
		cfg := fleet.DefaultConfig(benchNodes)
		cfg.Workers = workers
		cfg.Windows = benchWindows
		cfg.Seed = 1
		return cfg
	}
	baseline, err := fleet.Run(config(1))
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1, 2, 4, 8}
	// The framework invokes each sub-benchmark body several times while
	// calibrating b.N; overwriting the slot keeps only the final
	// (largest-N) measurement instead of accumulating probe runs.
	nsPerOp := make(map[int]int64, len(workerCounts))
	peakBytes := make(map[int]int64, len(workerCounts))
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var sum fleet.Summary
			// Peak live heap is sampled across the whole measurement loop:
			// the bounded-memory claim (peak tracks workers, not nodes) is
			// recorded per variant so BENCH_fleet.json carries it
			// longitudinally.
			peak := fleet.HeapWatermark(func() {
				for i := 0; i < b.N; i++ {
					var err error
					sum, err = fleet.Run(config(workers))
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			if sum.Fingerprint() != baseline.Fingerprint() {
				b.Fatalf("summary at %d workers diverged from the 1-worker baseline", workers)
			}
			b.ReportMetric(float64(sum.WindowsAtEOP), "windows_at_eop")
			b.ReportMetric(sum.EnergySavedWh, "energy_saved_wh")
			b.ReportMetric(float64(sum.Migrations), "migrations")
			b.ReportMetric(float64(sum.Crashes), "node_crashes")
			b.ReportMetric(float64(peak), "peak_bytes")
			nsPerOp[workers] = b.Elapsed().Nanoseconds() / int64(b.N)
			peakBytes[workers] = int64(peak)
		})
	}
	// Append the machine-readable perf record to BENCH_fleet.json so
	// the repo's performance trajectory accumulates run over run — a
	// record per (date, gomaxprocs) execution, so multi-core hosts and
	// the single-vCPU reference container coexist in one history and
	// parallel-speedup claims are measured, not asserted. Speedup is
	// measured wall-clock against the 1-worker variant of the same
	// process — never estimated from goroutine-elapsed sums.
	if nsPerOp[1] > 0 {
		variants := make([]benchhist.Variant, 0, len(workerCounts))
		for _, workers := range workerCounts {
			if nsPerOp[workers] == 0 {
				continue
			}
			speedup := float64(nsPerOp[1]) / float64(nsPerOp[workers])
			variants = append(variants, benchhist.Variant{
				Workers:    workers,
				NsPerOp:    nsPerOp[workers],
				Speedup:    speedup,
				Efficiency: speedup / float64(workers),
				PeakBytes:  peakBytes[workers],
			})
		}
		var hist benchhist.FleetFile
		loadBenchHistory(b, "BENCH_fleet.json", &hist)
		// Efficiency fence: the max-worker variant's parallel efficiency
		// (speedup ÷ workers) may not drop more than 15% below the most
		// recent record of the same GOMAXPROCS and environment class —
		// the regression gate on the fleet coordinator, fatal under CI
		// on the full-core leg, a warning interactively.
		// ns/op alone would miss this failure mode: a uniformly-slower
		// build keeps its efficiency, while a new serial phase or lock
		// shows up here first. Calibration re-runs are exempt, like the
		// campaign gate's.
		if _, rerun := benchRecordSlot["BENCH_fleet.json"]; !rerun {
			checkEfficiencyFence(b, hist.Records, variants)
		}
		hist.Benchmark = benchhist.FleetBenchmark
		hist.Nodes, hist.Windows = benchNodes, benchWindows
		hist.Records = appendBenchRecord("BENCH_fleet.json", hist.Records, benchhist.FleetRecord{
			Stamp:       benchhist.NewStamp(),
			Fingerprint: fmt.Sprintf("%x", sha256.Sum256([]byte(baseline.Fingerprint()))),
			Variants:    variants,
		})
		writeBenchHistory(b, "BENCH_fleet.json", hist)
	}
}

// efficiencyTolerance is the floor of the parallel-efficiency fence:
// the max-worker variant's speedup/worker may fall to 85% of the
// previous comparable record's before the benchmark is treated as a
// scaling regression (>15% drop fails). Wall-clock noise largely
// cancels out of the ratio — both legs ran in the same process — so
// the fence is tighter than the 20% ns/op gate.
const efficiencyTolerance = 0.85

// checkEfficiencyFence compares this run's max-worker efficiency
// against the previous comparable record (see benchhist.Previous). A
// >15% drop is a regression (see reportRegression). Records measured
// at a different max worker count don't gate — their efficiency is
// not comparable.
func checkEfficiencyFence(b *testing.B, records []benchhist.FleetRecord, current []benchhist.Variant) {
	top := benchhist.MaxWorker(current)
	if top.Workers == 0 || top.Eff() <= 0 {
		return
	}
	prev, ok := benchhist.Previous(records, nil)
	if !ok {
		return
	}
	prevTop := benchhist.MaxWorker(prev.Variants)
	if prevTop.Workers != top.Workers || prevTop.Eff() <= 0 {
		return
	}
	if top.Eff() < prevTop.Eff()*efficiencyTolerance {
		reportRegression(b, fmt.Sprintf("parallel efficiency regressed: %d-worker speedup/worker %.3f vs %.3f in the previous record (GOMAXPROCS=%d env=%s, recorded %s) — a new serial phase or lock contention, not plain slowness",
			top.Workers, top.Eff(), prevTop.Eff(), prev.GOMAXPROCS, prev.EnvClass(), prev.Date))
	}
}

// reportRegression reports a failed perf gate: fatal under CI, a
// warning interactively, since laptops throttle.
func reportRegression(b *testing.B, msg string) {
	if os.Getenv("CI") != "" {
		b.Fatal(msg)
	}
	b.Logf("WARNING: %s (non-fatal outside CI)", msg)
}

// gateNsPerOp is the ns/op gate of the campaign and restore
// benchmarks: a run more than tol times slower than the previous
// comparable record is re-measured up to twice and judged on its best
// — a single sample on a shared runner can catch a noisy neighbour,
// while a real code regression is slow every time.
func gateNsPerOp(b *testing.B, what string, tol float64, ns int64, prev benchhist.Stamp, prevNs int64, remeasure func() int64) {
	best := ns
	for retry := 0; retry < 2 && float64(best)/float64(prevNs) > tol; retry++ {
		if r := remeasure(); r < best {
			best = r
		}
	}
	if ratio := float64(best) / float64(prevNs); ratio > tol {
		reportRegression(b, fmt.Sprintf("%s regressed %.0f%% vs the previous record (%d -> %d ns/op best-of-retries at GOMAXPROCS=%d env=%s, recorded %s)",
			what, (ratio-1)*100, prevNs, best, prev.GOMAXPROCS, prev.EnvClass(), prev.Date))
	}
}

// benchRecordSlot remembers, per BENCH file, the record index this
// process already wrote. The benchmark framework re-invokes a
// benchmark body while calibrating b.N; without this, every
// calibration pass would append a near-duplicate record. With it, the
// final (largest-N) measurement of the run overwrites the earlier
// ones, which is the single-record-per-run semantics the history
// wants.
var benchRecordSlot = map[string]int{}

// appendBenchRecord places rec into hist's record slice: appending on
// the process's first write to path, replacing that same slot on
// calibration re-runs.
func appendBenchRecord[T any](path string, records []T, rec T) []T {
	if idx, ok := benchRecordSlot[path]; ok && idx < len(records) {
		records[idx] = rec
		return records
	}
	records = benchhist.Append(records, rec)
	benchRecordSlot[path] = len(records) - 1
	return records
}

// loadBenchHistory reads an existing BENCH file into v. A missing file
// starts a fresh history; an unreadable or malformed one fails the
// benchmark rather than silently clobbering the committed run-over-run
// record.
func loadBenchHistory(b *testing.B, path string, v any) {
	if err := benchhist.Load(path, v); err != nil && !errors.Is(err, fs.ErrNotExist) {
		b.Fatalf("%v — fix or delete it before benchmarking, or the history would be lost", err)
	}
}

// writeBenchHistory rewrites the BENCH file with the appended history.
func writeBenchHistory(b *testing.B, path string, v any) {
	if err := benchhist.Write(path, v); err != nil {
		b.Logf("writing %s: %v (perf record not updated)", path, err)
	}
}

// Campaign benchmark constants: the 6-preset × 3-seed grid (4 nodes,
// 16 windows per cell) that BENCH_campaign.json tracks.
const (
	campaignNodes   = 4
	campaignWindows = 16
	campaignSeeds   = 3

	// campaignGoldenSHA is the campaign fingerprint recorded BEFORE the
	// zero-allocation/hot-path optimization pass (at commit 2ee2578,
	// "PR 2: Scenario campaign engine"). The benchmark fails if the
	// optimized engine's results diverge from it by a single byte:
	// perf work here must never move a simulation outcome. Re-record
	// only when a PR intentionally changes simulation semantics, and
	// say so in EXPERIMENTS.md.
	campaignGoldenSHA = "4768b42dbb52c1578c203da357462c81840278c9c6b8e4aaf1046ceda9d8b592"

	// campaignBeforeNsPerOp is the same grid's wall-clock measured at
	// commit 2ee2578 on the reference container (GOMAXPROCS=1, Xeon @
	// 2.10 GHz) — the "before" leg of the speedup this PR's hot-path
	// pass is accountable for.
	campaignBeforeNsPerOp = 3_313_541_000
)

// campaignRegressionTolerance is how much slower than the previous
// record of the same shape — same GOMAXPROCS *and* same environment
// class (see benchhist.NewStamp) — the campaign may run before the
// benchmark is treated as a perf regression. Enforcement is fatal
// under CI and a warning interactively (laptops throttle). The
// CI-side gate arms when a CI-produced record from the uploaded
// artifact is committed into BENCH_campaign.json; until then CI still
// hard-fails on golden fingerprint divergence, and the gate protects
// the committed reference-container records.
const campaignRegressionTolerance = 1.20

// BenchmarkCampaign measures the scenario campaign engine end to end:
// one iteration is the full bundled-preset grid — every preset scaled
// to 4 nodes × 16 windows, swept over 3 seeds (18 fleet lifecycles)
// sharing one characterization snapshot cache, as RunCampaign does by
// default. It asserts the grid's fingerprint against the
// pre-optimization golden record, appends a dated record to
// BENCH_campaign.json's run-over-run history, and gates on the
// previous record: a >20% ns/op regression at the same GOMAXPROCS
// fails the benchmark in CI.
func BenchmarkCampaign(b *testing.B) {
	// The measured grid is pinned to the six classic presets by name:
	// BENCH_campaign.json is a run-over-run history, and silently
	// growing the grid whenever a preset lands (the lifetime presets
	// arrived after the golden was recorded) would make every ns/op
	// and fingerprint incomparable with the trajectory so far.
	names := []string{"baseline", "diurnal-burst", "droop-attack", "hetero-bins", "mode-churn", "thermal-summer"}
	scaled := make([]scenario.Scenario, len(names))
	for i, name := range names {
		s, err := scenario.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		scaled[i] = s.Scale(campaignNodes, campaignWindows)
	}
	seeds := make([]uint64, campaignSeeds)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	c := scenario.Campaign{Scenarios: scaled, Seeds: seeds}
	var rep scenario.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = scenario.RunCampaign(c)
		if err != nil {
			b.Fatal(err)
		}
	}
	switch {
	case runtime.GOOS != "linux" || runtime.GOARCH != "amd64":
		// The golden was recorded on linux/amd64; other math-library
		// builds may round transcendentals differently. Determinism
		// within this host is still covered by the scenario tests.
		b.Logf("skipping golden comparison on %s/%s (recorded on linux/amd64)", runtime.GOOS, runtime.GOARCH)
	case rep.FingerprintSHA256 != campaignGoldenSHA:
		b.Fatalf("campaign fingerprint diverged from the pre-optimization record:\n got %s\nwant %s",
			rep.FingerprintSHA256, campaignGoldenSHA)
	}
	nsPerOp := b.Elapsed().Nanoseconds() / int64(b.N)
	speedup := float64(campaignBeforeNsPerOp) / float64(nsPerOp)
	b.ReportMetric(speedup, "speedup_vs_pre_opt")
	b.ReportMetric(float64(rep.CharactCacheHits), "cache_hits")

	var hist benchhist.CampaignFile
	loadBenchHistory(b, "BENCH_campaign.json", &hist)

	// Regression gate against the previous comparable record (a
	// -benchtime 1x sample is re-measured before it is condemned).
	// Calibration re-runs of this function are exempt: they would
	// compare against their own just-written record.
	if _, rerun := benchRecordSlot["BENCH_campaign.json"]; !rerun {
		if prev, ok := benchhist.Previous(hist.Records, func(r benchhist.CampaignRecord) bool { return r.NsPerOp > 0 }); ok {
			gateNsPerOp(b, "campaign", campaignRegressionTolerance, nsPerOp, prev.Stamp, prev.NsPerOp, func() int64 {
				start := time.Now()
				if _, err := scenario.RunCampaign(c); err != nil {
					b.Fatal(err)
				}
				return time.Since(start).Nanoseconds()
			})
		}
	}

	hist.Benchmark = benchhist.CampaignBenchmark
	hist.Scenarios, hist.Seeds = len(scaled), campaignSeeds
	hist.Nodes, hist.Windows = campaignNodes, campaignWindows
	hist.BeforeNs = campaignBeforeNsPerOp
	hist.Records = appendBenchRecord("BENCH_campaign.json", hist.Records, benchhist.CampaignRecord{
		Stamp:       benchhist.NewStamp(),
		Fingerprint: rep.FingerprintSHA256,
		NsPerOp:     nsPerOp,
		Speedup:     speedup,
		CacheHits:   rep.CharactCacheHits,
		CacheMisses: rep.CharactCacheMisses,
	})
	writeBenchHistory(b, "BENCH_campaign.json", hist)
}

// restoreRegressionTolerance is the BenchmarkSnapshotRestore gate,
// matching the campaign fence: the warm stamp may run at most 20%
// slower than the previous record of the same GOMAXPROCS and
// environment class before CI fails.
const restoreRegressionTolerance = 1.20

// BenchmarkSnapshotRestore measures the per-node fixed cost the
// characterization cache charges on every hit: materializing an
// ecosystem from a snapshot. The cold leg is the reference: a stamp
// into a fresh arena each op, which builds the whole object graph. The
// template leg is what the fleet runs for every node after a worker's
// first: a stamp into that worker's warm arena (the bulk shared with
// the snapshot until first write, near-zero allocations). Both legs
// stamp the same default-spec snapshot, and the ≥5× allocation
// reduction plus the measured ns/op win are enforced, not asserted:
// the benchmark fails if arena reuse stops paying for itself.
func BenchmarkSnapshotRestore(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Seed = 1
	eco, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eco.PreDeployment(); err != nil {
		b.Fatal(err)
	}
	snap, err := eco.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	arena := core.NewRestoreArena()
	if _, err := snap.RestoreInto(arena, core.RestoreOptions{}); err != nil {
		b.Fatal(err) // cold stamp: the template leg measures the warm path
	}

	// measure runs one leg, returning ns/op and allocs/op. Allocations
	// come from the runtime's malloc counter around the timed loop —
	// the same number -benchmem prints, but available programmatically
	// for the history record.
	measure := func(b *testing.B, run func()) (int64, float64) {
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		return b.Elapsed().Nanoseconds() / int64(b.N),
			float64(after.Mallocs-before.Mallocs) / float64(b.N)
	}

	var coldNs, tmplNs int64
	var coldAllocs, tmplAllocs float64
	b.Run("cold", func(b *testing.B) {
		coldNs, coldAllocs = measure(b, func() {
			if _, err := snap.RestoreInto(core.NewRestoreArena(), core.RestoreOptions{}); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("template", func(b *testing.B) {
		tmplNs, tmplAllocs = measure(b, func() {
			if _, err := snap.RestoreInto(arena, core.RestoreOptions{}); err != nil {
				b.Fatal(err)
			}
		})
	})
	if coldNs == 0 || tmplNs == 0 {
		return // a -bench filter skipped a leg; nothing comparable to record
	}
	speedup := float64(coldNs) / float64(tmplNs)
	b.ReportMetric(speedup, "template_speedup")

	// The arena's reason to exist, as fences: ≥5× fewer allocations and
	// a measured wall-clock win for the warm stamp over the cold one.
	if tmplAllocs*5 > coldAllocs {
		b.Fatalf("warm stamp allocates %.1f/op vs cold %.1f/op — less than the required 5x reduction",
			tmplAllocs, coldAllocs)
	}
	if tmplNs >= coldNs {
		reportRegression(b, fmt.Sprintf("warm stamp (%d ns/op) is not faster than cold stamp (%d ns/op)",
			tmplNs, coldNs))
	}

	var hist benchhist.FleetFile
	loadBenchHistory(b, "BENCH_fleet.json", &hist)

	// Regression gate on the path the fleet actually runs: the template
	// ns/op against the previous comparable record, re-measured over a
	// microsecond-scale loop before it is condemned. Calibration re-runs
	// are exempt.
	const slotKey = "BENCH_fleet.json#restore"
	if _, rerun := benchRecordSlot[slotKey]; !rerun {
		if prev, ok := benchhist.Previous(hist.Restore, func(r benchhist.RestoreRecord) bool { return r.TemplateNsPerOp > 0 }); ok {
			gateNsPerOp(b, "snapshot restore", restoreRegressionTolerance, tmplNs, prev.Stamp, prev.TemplateNsPerOp, func() int64 {
				const n = 2000
				start := time.Now()
				for i := 0; i < n; i++ {
					if _, err := snap.RestoreInto(arena, core.RestoreOptions{}); err != nil {
						b.Fatal(err)
					}
				}
				return time.Since(start).Nanoseconds() / n
			})
		}
	}

	hist.Restore = appendBenchRecord(slotKey, hist.Restore, benchhist.RestoreRecord{
		Stamp:           benchhist.NewStamp(),
		Reference:       "cold stamp",
		LegacyNsPerOp:   coldNs,
		LegacyAllocs:    coldAllocs,
		TemplateNsPerOp: tmplNs,
		TemplateAllocs:  tmplAllocs,
		Speedup:         speedup,
	})
	writeBenchHistory(b, "BENCH_fleet.json", hist)
}

func runEcosystemOnce(seed uint64) error {
	m := cpu.NewMachine(cpu.PartI5_4200U(), seed)
	margins := cpu.Margins(cpu.PartI5_4200U(), cpu.SPECSuite(), 1, seed)
	if len(margins) == 0 {
		return fmt.Errorf("no margins")
	}
	for w := 0; w < 20; w++ {
		if m.RunAt(0, cpu.SPECSuite()[w%8], margins[0].Safe.VoltageMV).Crashed {
			// Sporadic crash at the safe point is tolerable; the
			// hypervisor masks it.
			continue
		}
	}
	return nil
}
