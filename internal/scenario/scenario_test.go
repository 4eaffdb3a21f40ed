package scenario

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"uniserver/internal/fleet"
)

// runCell runs one scenario at one seed through a run-private
// characterization cache: node seeds within one run are all distinct,
// so nothing is reused, but every node takes the snapshot→stamp path.
func runCell(s Scenario, seed uint64, workers int) (Result, error) {
	return runScenarioWith(s, seed, workers, fleet.NewCharactCache())
}

// testSize keeps runs fast: presets scale down to this grid for the
// determinism sweeps.
const (
	testNodes   = 3
	testWindows = 12
)

// goldenPresetSHA pins each preset's fingerprint hash at the test
// grid (3 nodes, 12 windows, seed 11), recorded BEFORE the hot-path
// optimization pass: optimizations must reproduce these byte for byte
// at every worker count. The values are exact for the committed Go
// toolchain on linux/amd64 (the math library's transcendentals are
// what the simulation's floats flow through); re-record them — with a
// note in EXPERIMENTS.md — only when a PR intentionally changes
// simulation semantics.
// goldenPlatform reports whether this is the platform class the
// golden hashes were recorded on. Off it, a different math-library
// build can legitimately round transcendentals differently; the
// worker-count identity contract still holds and is still asserted,
// only the cross-platform byte comparison is skipped.
func goldenPlatform() bool {
	return runtime.GOOS == "linux" && runtime.GOARCH == "amd64"
}

var goldenPresetSHA = map[string]string{
	"baseline":       "e25488bbafbab6b81ced2b41a04f2623ef26f4389dc3693297fefcffee1b09e8",
	"diurnal-burst":  "a1df43ffb8200243b86caceed13f6f4ef26932bea1cf397e089bc0af30b49f91",
	"droop-attack":   "0f2fe02d2fbc50b34e0a4ea472ad82dafea87f8d69f6a993ee37168ad152974e",
	"hetero-bins":    "4636fc697de91580d275444f261540ab97331b9933b1201d6ec87b0c9eaf75aa",
	"mode-churn":     "be4df7810c70386a0008ffe05b2b66e54108516e8cda99db45f3f9e406c19b5d",
	"thermal-summer": "d2a94571c36750bf5a04310a60f82701e879818106b7f5a82bb52af587d8d29b",
	// Lifetime presets, recorded when the lifetime engine landed (the
	// six SHAs above were untouched by it — single-epoch fingerprints
	// carry no trajectory lines).
	"aging-year":    "7792eeb370756ceac92984599a08f4cceb0e944accd73aa8bc7a15d3f0217c41",
	"recharact-1mo": "ea97ed824196703113fcfa387e648416c106c9e062acbdb00d56afc15762955a",
	"recharact-3mo": "2a7b737e80d6ea8d3eb225289d5b813e7ecf6b27b9b89ad303db31308f428c5c",
	"recharact-6mo": "ba7a6bbb807c510bf137d46be93eafaeda2e3c9793ba158b9fb486510a95ac59",
	// Population-scale preset, recorded when the population engine
	// landed (every SHA above was untouched by it — the fused per-node
	// lifecycle reproduces the node-order merge byte for byte). Archetype-clone characterization makes this one a
	// different experiment than a per-node-characterized fleet would
	// be, hence its own golden.
	"fleet-100k": "df20689c5310417805c44b08dbed9839027356908485d0934cc0dbc9367101e3",
	// Adaptive-policy presets, recorded when the predictor-in-the-loop
	// policies landed (every SHA above was untouched by that PR — the
	// policy counter lines are fingerprint-silent when the counters are
	// all zero, which they are for every policy-free preset). At the
	// test grid drift-cadence shows a mix of triggered and suppressed
	// campaigns and ecc-closedloop shows both undervolt steps and
	// backoffs, so the goldens pin real policy decisions, not idle
	// controllers.
	"drift-cadence":  "d8074be47df3d35dc4763f8e9b5942fe056065474744d010f01e60f0fed5ea1a",
	"ecc-closedloop": "dfe7a64d79bb7382edb7247e28c18d5dea38bb17dfb5e03a1da548df6c545a82",
}

// TestPresetDeterminismAcrossWorkerCounts is the scenario layer's
// inherited contract: every bundled preset, compiled through
// FleetConfig, must produce byte-identical fleet fingerprints at 1, 4
// and 8 workers — and those fingerprints must hash to the recorded
// pre-optimization goldens. Run with -race to also check the
// perturbation hooks are applied without data races.
func TestPresetDeterminismAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	for _, preset := range Presets() {
		preset := preset
		t.Run(preset.Name, func(t *testing.T) {
			t.Parallel()
			s := preset.Scale(testNodes, testWindows)
			var want string
			for _, workers := range []int{1, 4, 8} {
				res, err := runCell(s, 11, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if want == "" {
					want = res.Fingerprint
					golden := goldenPresetSHA[s.Name]
					switch {
					case !goldenPlatform():
						t.Logf("skipping golden comparison on %s/%s (recorded on linux/amd64)",
							runtime.GOOS, runtime.GOARCH)
					case res.FingerprintSHA256 != golden:
						t.Errorf("fingerprint diverged from the pre-optimization golden:\n got %s\nwant %s",
							res.FingerprintSHA256, golden)
					}
					continue
				}
				if res.Fingerprint != want {
					t.Fatalf("fingerprint diverged at workers=%d:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
						workers, want, workers, res.Fingerprint)
				}
			}
		})
	}
}

// TestShardInvariance is the population engine's golden contract:
// execution knobs never change results. The name dates from when
// shard count was one of those knobs; what remains are worker count
// and the characterization cache's warmth. Every (cache, workers)
// cell of a representative preset slice — the plain homogeneous
// fleet, the heterogeneous-bin fleet, the lifetime scenario, the
// archetype-clone population preset, and the two adaptive-policy
// presets (whose per-node policy state must fold through the single
// node-order fold untouched) — must reproduce the recorded preset
// golden byte for byte, whether each run characterizes afresh or the
// runs share one cache, so later cells are stamped from snapshots an
// earlier cell made.
// Run with -race: the claim loop and the fold after the pool joins
// are exactly where an ordering bug would race.
func TestShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	for _, name := range []string{"baseline", "hetero-bins", "aging-year", "fleet-100k", "drift-cadence", "ecc-closedloop"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			preset, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s := preset.Scale(testNodes, testWindows)
			shared := fleet.NewCharactCache()
			var want string
			for _, warm := range []bool{false, true} {
				for _, workers := range []int{1, 4, 8} {
					cache := fleet.NewCharactCache()
					if warm {
						cache = shared
					}
					res, err := runScenarioWith(s, 11, workers, cache)
					if err != nil {
						t.Fatalf("warm=%t workers=%d: %v", warm, workers, err)
					}
					if want == "" {
						want = res.Fingerprint
						golden := goldenPresetSHA[s.Name]
						switch {
						case !goldenPlatform():
							t.Logf("skipping golden comparison on %s/%s (recorded on linux/amd64)",
								runtime.GOOS, runtime.GOARCH)
						case res.FingerprintSHA256 != golden:
							t.Errorf("fingerprint diverged from the recorded golden:\n got %s\nwant %s",
								res.FingerprintSHA256, golden)
						}
						continue
					}
					if res.Fingerprint != want {
						t.Fatalf("fingerprint diverged at warm=%t workers=%d:\n--- first cell ---\n%s--- this cell ---\n%s",
							warm, workers, want, res.Fingerprint)
					}
				}
			}
			if st := shared.Stats(); st.Hits == 0 {
				t.Errorf("shared cache served no hits (%d misses): the warm cells ran cold", st.Misses)
			}
		})
	}
}

// TestDriftZeroMarginEqualsPlainCadence pins the drift gate's
// degenerate case, the acceptance criterion for the policy layer: at
// MarginFrac = 0 every scheduled campaign's drift (aging is monotone,
// so drift >= 0) clears the threshold, the gate always opens, and the
// run must reproduce the plain fixed-cadence schedule exactly — same
// campaigns in the same epochs on every node, and a fingerprint that
// differs from the ungated run ONLY by the policy counter lines the
// nonzero RecharTriggered counter turns on. Stripping those lines
// must give the plain run's fingerprint byte for byte.
func TestDriftZeroMarginEqualsPlainCadence(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	preset, err := ByName("recharact-1mo")
	if err != nil {
		t.Fatal(err)
	}
	s := preset.Scale(testNodes, testWindows)
	cfg, err := s.FleetConfig(11)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gated := cfg
	gated.Drift = &fleet.DriftPolicy{MarginFrac: 0}
	drift, err := fleet.Run(gated)
	if err != nil {
		t.Fatal(err)
	}

	if drift.RecharSuppressed != 0 {
		t.Errorf("zero-margin gate suppressed %d campaigns; it must never close", drift.RecharSuppressed)
	}
	if drift.RecharTriggered == 0 {
		t.Error("zero-margin gate recorded no triggered campaigns; the gate never consulted the predictor")
	}
	if drift.Recharacterized != plain.Recharacterized {
		t.Errorf("campaign counts diverged: %d gated vs %d plain", drift.Recharacterized, plain.Recharacterized)
	}
	for i := range plain.PerNode {
		p, d := plain.PerNode[i], drift.PerNode[i]
		if p.Recharacterized != d.Recharacterized {
			t.Errorf("node %s: %d campaigns gated vs %d plain", p.Name, d.Recharacterized, p.Recharacterized)
		}
		for e := range p.Epochs {
			if p.Epochs[e] != d.Epochs[e] {
				t.Errorf("node %s epoch %d trajectory diverged under the zero-margin gate", p.Name, e)
			}
		}
	}

	var stripped strings.Builder
	for _, line := range strings.SplitAfter(drift.Fingerprint(), "\n") {
		if strings.HasPrefix(line, "policy ") || strings.Contains(line, " policy ") {
			continue
		}
		stripped.WriteString(line)
	}
	if stripped.String() != plain.Fingerprint() {
		t.Fatalf("zero-margin drift run is not the plain cadence plus counter lines:\n--- plain ---\n%s--- gated, policy lines stripped ---\n%s",
			plain.Fingerprint(), stripped.String())
	}
}

// TestBaselineEqualsPlainFleet pins the compiler's floor: the
// baseline scenario is exactly the plain homogeneous fleet — same
// stream labels, same ambient defaults — so its fingerprint must
// equal a hand-built fleet.DefaultConfig run.
func TestBaselineEqualsPlainFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	s := Baseline().Scale(2, 8)
	res, err := runCell(s, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleet.DefaultConfig(2)
	cfg.Windows = 8
	cfg.Seed = 5
	cfg.Mode = s.Mode
	cfg.RiskTarget = s.RiskTarget
	sum, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != sum.Fingerprint() {
		t.Fatalf("baseline scenario diverged from the plain fleet:\n--- scenario ---\n%s--- fleet ---\n%s",
			res.Fingerprint, sum.Fingerprint())
	}
}

// TestCampaignDeterministicAcrossParallelism runs the same small grid
// at two campaign parallelism levels and requires identical reports
// (cell order, aggregates, fingerprints).
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	grid := Campaign{
		Scenarios: []Scenario{
			Baseline().Scale(2, 8),
			DroopAttack().Scale(2, 8),
		},
		Seeds: []uint64{3, 9},
	}
	run := func(parallel int) Report {
		c := grid
		c.Parallel = parallel
		rep, err := RunCampaign(c)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return rep
	}
	seq, par := run(1), run(4)
	if seq.FingerprintSHA256 != par.FingerprintSHA256 {
		t.Fatalf("campaign fingerprint diverged: %s vs %s", seq.FingerprintSHA256, par.FingerprintSHA256)
	}
	for i := range seq.Results {
		if seq.Results[i].Fingerprint != par.Results[i].Fingerprint {
			t.Fatalf("grid cell %d (%s seed %d) diverged across parallelism",
				i, seq.Results[i].Scenario, seq.Results[i].Seed)
		}
	}
}

// TestCampaignCharactShareByteIdentical pins the snapshot cache's
// campaign-level contract: sharing characterization across cells must
// not move a single byte of any cell's fingerprint, must actually
// reuse work (cells at the same seed share their node specs across
// scenarios), and must report its traffic in the Report so perf runs
// are self-describing. The reference leg runs each cell alone through
// runCell, whose run-private cache shares nothing across cells.
func TestCampaignCharactShareByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	grid := Campaign{
		Scenarios: []Scenario{
			Baseline().Scale(2, 8),
			ThermalSummer().Scale(2, 8), // differs only in environment: must share
			HeteroBins().Scale(2, 8),    // different silicon: must split per part
		},
		Seeds:    []uint64{3, 9},
		Parallel: 4,
	}
	shared, err := RunCampaign(grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range shared.Results {
		s, seed := grid.Scenarios[i/len(grid.Seeds)], grid.Seeds[i%len(grid.Seeds)]
		solo, err := runCell(s, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fingerprint != solo.Fingerprint {
			t.Fatalf("cell %d (%s seed %d) diverged under sharing", i, res.Scenario, res.Seed)
		}
	}
	// 3 scenarios × 2 seeds × 2 nodes = 12 characterizations unshared.
	// Shared: per seed, node 0 (i5) + node 1 (i5) are shared by
	// baseline and thermal-summer and node 0 of hetero-bins; node 1 of
	// hetero-bins is the lone i7 — 3 misses per seed, 6 total.
	if got := shared.CharactCacheMisses; got != 6 {
		t.Errorf("want 6 cache misses, got %d", got)
	}
	if got := shared.CharactCacheHits; got != 6 {
		t.Errorf("want 6 cache hits, got %d", got)
	}
	if shared.EffectiveParallel != grid.EffectiveParallel() {
		t.Errorf("report parallelism %d != campaign's %d", shared.EffectiveParallel, grid.EffectiveParallel())
	}
}

// TestScenarioEffectsObservable checks each scenario lever actually
// reaches the simulation: hetero bins change the per-node part model,
// and a droop attack produces at least as many crashes as the same
// fleet without it.
func TestScenarioEffectsObservable(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	hetero := HeteroBins().Scale(2, 6)
	res, err := runCell(hetero, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]bool{}
	for _, n := range res.Summary.PerNode {
		models[n.Model] = true
	}
	if len(models) < 2 {
		t.Fatalf("hetero-bins fleet has homogeneous models: %v", models)
	}

	attacked := DroopAttack().Scale(2, 16)
	clean := attacked
	clean.Attacks = nil
	resAtt, err := runCell(attacked, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	resClean, err := runCell(clean, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resAtt.Summary.Crashes < resClean.Summary.Crashes {
		t.Fatalf("droop attack reduced crashes: %d with attack vs %d without",
			resAtt.Summary.Crashes, resClean.Summary.Crashes)
	}
	if resAtt.Fingerprint == resClean.Fingerprint {
		t.Fatal("attack scenario is indistinguishable from the clean run")
	}
}

// TestScaleKeepsDeclarationsValid scales every preset to several
// (nodes, windows) grids and requires the result to still validate —
// remapped switches, attacks and phases must stay in range.
func TestScaleKeepsDeclarationsValid(t *testing.T) {
	for _, preset := range Presets() {
		for _, size := range [][2]int{{1, 1}, {2, 5}, {4, 16}, {16, 400}} {
			s := preset.Scale(size[0], size[1])
			if err := s.Validate(); err != nil {
				t.Errorf("%s scaled to %v: %v", preset.Name, size, err)
			}
		}
	}
}

// TestValidateRejectsBadDeclarations spot-checks the validator.
func TestValidateRejectsBadDeclarations(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"zero nodes", func(s *Scenario) { s.Nodes = 0 }},
		{"zero windows", func(s *Scenario) { s.Windows = 0 }},
		{"risk out of range", func(s *Scenario) { s.RiskTarget = 1.5 }},
		{"unknown bin", func(s *Scenario) { s.Bins = []string{"z80"} }},
		{"switch window out of range", func(s *Scenario) {
			s.ModeSwitches = []ModeSwitch{{Window: s.Windows, Node: -1, RiskTarget: 0.01}}
		}},
		{"attack node out of range", func(s *Scenario) {
			s.Attacks = []Attack{{Node: s.Nodes, Window: 0, Windows: 1}}
		}},
	}
	for _, c := range cases {
		s := Baseline()
		c.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the declaration", c.name)
		}
	}
}

// TestByName covers the registry surface.
func TestByName(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("want at least 5 presets, got %d: %v", len(names), names)
	}
	for _, n := range names {
		s, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != n {
			t.Fatalf("ByName(%q) returned %q", n, s.Name)
		}
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Fatal("ByName accepted an unknown name")
	}
}

// TestReportJSONRoundTrips checks the report is machine-readable: it
// marshals, unmarshals, and keeps the grid intact.
func TestReportJSONRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	rep, err := RunCampaign(Campaign{
		Scenarios: []Scenario{Baseline().Scale(2, 4)},
		Seeds:     []uint64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"Fingerprint\":") {
		t.Fatal("full fingerprints leaked into the JSON report")
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(back.Results) != 2 || len(back.Scenarios) != 1 {
		t.Fatalf("round-tripped grid shape wrong: %d results, %d scenarios",
			len(back.Results), len(back.Scenarios))
	}
	if back.FingerprintSHA256 != rep.FingerprintSHA256 {
		t.Fatal("campaign fingerprint changed across the round trip")
	}
}

// TestLifetimeScenarioObservable is the acceptance pin for the
// lifetime axis: an aging-year campaign must show nonzero scheduled
// re-characterizations and a monotone margin-drift trajectory in its
// Report, and the cadence family must order as scheduled (a monthly
// cadence re-characterizes more often than a half-yearly one).
func TestLifetimeScenarioObservable(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	grid := Campaign{
		Scenarios: []Scenario{AgingYear().Scale(2, 6)},
		Seeds:     []uint64{4},
	}
	grid.Scenarios = append(grid.Scenarios, RecharactCadences()...)
	for i := 1; i < len(grid.Scenarios); i++ {
		grid.Scenarios[i] = grid.Scenarios[i].Scale(2, 6)
	}
	rep, err := RunCampaign(grid)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ScenarioReport{}
	for _, sr := range rep.Scenarios {
		byName[sr.Scenario] = sr
	}
	aging := byName["aging-year"]
	if aging.Recharacterized == 0 {
		t.Fatal("aging-year report shows zero re-characterizations")
	}
	if aging.MeanFinalAgeShiftMV <= 0 {
		t.Fatal("aging-year report shows no aging drift")
	}
	// Per-node margin trajectories: one row per epoch, monotone drift.
	for _, res := range rep.Results {
		if res.Scenario != "aging-year" {
			continue
		}
		for _, n := range res.Summary.PerNode {
			if len(n.Epochs) != 4 {
				t.Fatalf("aging-year node %s has %d trajectory rows, want 4", n.Name, len(n.Epochs))
			}
			for i := 1; i < len(n.Epochs); i++ {
				if n.Epochs[i].AgeShiftMV < n.Epochs[i-1].AgeShiftMV {
					t.Fatalf("aging-year node %s drift not monotone at epoch %d", n.Name, i)
				}
			}
		}
	}
	if r1, r6 := byName["recharact-1mo"].Recharacterized, byName["recharact-6mo"].Recharacterized; r1 <= r6 {
		t.Fatalf("monthly cadence ran %d campaigns, half-yearly %d; cadence has no effect", r1, r6)
	}
}

// TestCampaignCharactDirSharesAcrossInstances covers the CLI/CI
// cross-process path at the campaign level: a second campaign with a
// fresh cache but the same spill directory must reuse every
// characterization from disk and reproduce the grid byte for byte.
func TestCampaignCharactDirSharesAcrossInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	grid := Campaign{
		Scenarios:  []Scenario{Baseline().Scale(2, 6), ThermalSummer().Scale(2, 6)},
		Seeds:      []uint64{3},
		CharactDir: t.TempDir(),
	}
	cold, err := RunCampaign(grid)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunCampaign(grid)
	if err != nil {
		t.Fatal(err)
	}
	if cold.FingerprintSHA256 != warm.FingerprintSHA256 {
		t.Fatalf("disk-shared campaign diverged: %s vs %s", cold.FingerprintSHA256, warm.FingerprintSHA256)
	}
	if cold.CharactCacheMisses == 0 || cold.CharactDiskHits != 0 {
		t.Fatalf("cold campaign stats unexpected: %d misses, %d disk hits", cold.CharactCacheMisses, cold.CharactDiskHits)
	}
	if warm.CharactDiskHits == 0 || warm.CharactCacheMisses != 0 {
		t.Fatalf("warm campaign did not share across instances: %d misses, %d disk hits",
			warm.CharactCacheMisses, warm.CharactDiskHits)
	}
}

// TestScaleRemapsOnTotalWindowAxis: window-indexed features of a
// lifetime scenario live on the concatenated (total) window axis, and
// Scale must remap them against it — not against the per-epoch
// Windows, which would fold later-epoch features into epoch 0.
func TestScaleRemapsOnTotalWindowAxis(t *testing.T) {
	s := Baseline()
	s.Windows = 60
	s.Lifetime = LifetimeModel{Epochs: 4, GapDays: 30, GapDuty: 0.5}
	// A switch in epoch 2 (total axis: windows 120..179).
	s.ModeSwitches = []ModeSwitch{{Window: 150, Node: -1, Mode: s.Mode, RiskTarget: 0.01}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same-size rescale is the identity.
	if got := s.Scale(s.Nodes, 60).ModeSwitches[0].Window; got != 150 {
		t.Fatalf("identity rescale moved the switch to window %d", got)
	}
	// Halving per-epoch windows halves the total axis: 150 -> 75,
	// still in epoch 2 of the scaled scenario (60..89).
	half := s.Scale(s.Nodes, 30)
	if got := half.ModeSwitches[0].Window; got != 75 {
		t.Fatalf("halved rescale moved the switch to window %d, want 75", got)
	}
	if err := half.Validate(); err != nil {
		t.Fatal(err)
	}
}
