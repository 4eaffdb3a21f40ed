package scenario

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"uniserver/internal/fleet"
	"uniserver/internal/rng"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// genSeed is the run seed every generated scenario executes at.
const genSeed = 7

// goldenGeneratedSHA pins the fingerprint hash of generated scenario g
// (genScenario(g) at seed genSeed). The table reaches the feature
// combinations no preset declares — bins with lifetime growth, bursts
// under attacks, archetypes beside the ECC loop — so a rewrite of
// RNG-consuming code must reproduce far more than the presets.
// Re-record it only when simulation semantics change on purpose.
var goldenGeneratedSHA = map[uint64]string{
	1:  "d911591d1930db0b1610fc02cec79d1ba71f54f06eb011422de0e5db6b10c61a",
	2:  "7d3435871af9e87c98b8343a67fdb00ed3ace3fefc617842cea68d03c4118055",
	3:  "8f1d1a31e8fa0a7125f1ee2fbd6e14cbacef0d782695c51406562bdc3a18d10c",
	4:  "f986c740d6ac9a26d653033780a348ebe003d063b4a7bd6d62a07311fd4d264c",
	5:  "8a957c7b89ec5e85b6078b03352927ec1eb9120926f18bf41305703550ecf98f",
	6:  "29c310e77e730b1369e4457630e76bfb236d78044c580e100e4e62c486154395",
	7:  "c1fdaaa3747fde1ea20ecd1ef8f1d8aa81c9058856eb0a7ec279824033e05d18",
	8:  "11775e65f45d85e4f1e408c2b43a38ad234cf9f7930bc1937cd782534a83cab2",
	9:  "bc7f89d57ce34a4a85e8c3c8d62ab836d09c039d439673ee49d1f498c0c1e20e",
	10: "c9a51a83586b51a179ce51ef494adf7a9b03cd51522dc26708e1149df36f817c",
	11: "3ad2aaeef1bc9903034940f4a04dcd9233aac911a663501b72abee6ec66dcb9b",
	12: "22b527abf12e956939fcaafe5c5cd55f61c48cccc4d3359ddae3362424f9a102",
}

// genScenario draws a small, valid Scenario from generator seed g.
// Every choice is bounded so one scenario runs in well under a second:
// 2–4 nodes, 6–12 windows per epoch, at most three epochs.
func genScenario(g uint64) Scenario {
	r := rng.New(g).SplitLabeled("scenario/gen")
	pick := func(n int) int { return r.Intn(n) }
	s := Scenario{
		Name:       fmt.Sprintf("gen-%d", g),
		Nodes:      2 + pick(3),
		Windows:    6 + pick(7),
		Mode:       []vfr.Mode{vfr.ModeNominal, vfr.ModeHighPerformance, vfr.ModeLowPower}[pick(3)],
		RiskTarget: []float64{0.0004, 0.01, 0.02}[pick(3)],
	}
	if pick(2) == 0 {
		s.VMs = 1 + pick(6*s.Nodes)
	}
	switch pick(4) {
	case 1:
		s.Bins = []string{"i7-3970X"}
	case 2:
		s.Bins = []string{"i5-4200U", "i7-3970X"}
	case 3:
		s.Bins = []string{"i7-3970X", "i5-4200U", "i5-4200U"}
	}
	// The generator seed fixes the lifetime and ambient kinds, so any
	// twelve consecutive seeds cover every combination of them; the
	// rest is drawn.
	if life := g % 3; life > 0 {
		s.Lifetime = LifetimeModel{
			Epochs:  2 + pick(2),
			GapDays: 10 + pick(60),
			GapDuty: float64(pick(11)) / 10,
		}
		if life == 2 || pick(2) == 0 {
			s.Lifetime.RecharactEveryDays = 15 + pick(60)
		}
		if life == 2 || pick(3) == 0 {
			s.WeakCellsPerDay = float64(1 + pick(40))
		}
		if pick(3) == 0 {
			s.DriftMarginFrac = []float64{0.05, 0.1, 0.3}[pick(3)]
		}
	}
	total := s.TotalWindows()
	switch amb := g / 3 % 4; {
	case amb == 1 || amb == 3 && !s.Lifetime.enabled():
		s.Ambient = AmbientModel{BaseCPUC: 20 + float64(pick(20)), BaseDIMMC: 30 + float64(pick(20))}
	case amb == 2 && !s.Lifetime.enabled():
		s.Ambient = AmbientModel{
			BaseCPUC: 30, BaseDIMMC: 40, SwingC: float64(2 + pick(8)), PeriodWindows: 2 + pick(total),
			HeatStart: pick(total), HeatWindows: 1 + pick(total), HeatDeltaC: float64(5 + pick(20)),
		}
	case amb >= 2:
		for range 1 + pick(3) {
			s.Lifetime.SeasonCPUC = append(s.Lifetime.SeasonCPUC, 20+float64(pick(20)))
			s.Lifetime.SeasonDIMMC = append(s.Lifetime.SeasonDIMMC, 28+float64(pick(20)))
		}
	}
	if pick(2) == 0 {
		s.Arrival.DiurnalDepth, s.Arrival.PeriodWindows = float64(1+pick(9))/10, 2+pick(total)
	}
	if pick(2) == 0 {
		s.Arrival.BurstStart, s.Arrival.BurstWindows, s.Arrival.BurstFactor = pick(total), 1+pick(total), float64(2+pick(4))
	}
	for range pick(3) {
		s.ModeSwitches = append(s.ModeSwitches, ModeSwitch{
			Window:     pick(total),
			Node:       pick(s.Nodes+1) - 1,
			Mode:       []vfr.Mode{vfr.ModeNominal, vfr.ModeHighPerformance, vfr.ModeLowPower}[pick(3)],
			RiskTarget: []float64{0.0004, 0.01, 0.02}[pick(3)],
		})
	}
	for range pick(3) {
		s.Attacks = append(s.Attacks, Attack{Node: pick(s.Nodes), Window: pick(total), Windows: 1 + pick(total)})
	}
	if g%4 == 1 || pick(4) == 0 {
		s.ECCLoop = true
		s.ECCThreshold = pick(3)
	}
	s.Archetypes = g%4 == 3
	return s
}

// scheduleAttempts counts the VM arrivals the cloud replay offers the
// scheduler: every arrival at or before the last window's start.
func scheduleAttempts(t *testing.T, cfg fleet.Config) int {
	t.Helper()
	arrivals := cfg.Arrivals
	if arrivals == nil {
		var err error
		if arrivals, err = workload.Stream(cfg.StreamDefaults(), rng.New(cfg.Seed).SplitLabeled("fleet/arrivals")); err != nil {
			t.Fatal(err)
		}
	}
	last := time.Duration(cfg.Windows-1) * time.Minute
	n := 0
	for _, a := range arrivals {
		if a.At <= last {
			n++
		}
	}
	return n
}

// TestGeneratedScenarios runs each generated scenario at 1, 2 and 4
// workers, with a characterization cache shared across the runs and
// without one, and asserts one fingerprint across all six runs, the
// recorded golden, and the summary's conservation invariants. Every
// failure names the generator seed, so `genScenario(g)` replays it.
func TestGeneratedScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	for g := uint64(1); g <= 12; g++ {
		t.Run(fmt.Sprint(g), func(t *testing.T) {
			t.Parallel()
			s := genScenario(g)
			if err := s.Validate(); err != nil {
				t.Fatalf("generator seed %d drew an invalid scenario: %v", g, err)
			}
			cfg, err := s.FleetConfig(genSeed)
			if err != nil {
				t.Fatalf("generator seed %d: %v", g, err)
			}
			attempts := scheduleAttempts(t, cfg)
			cache := fleet.NewCharactCache()
			var want string
			for _, cached := range []bool{true, false} {
				for _, workers := range []int{1, 2, 4} {
					run := cfg
					run.Workers = workers
					run.Charact = nil
					if cached {
						run.Charact = cache
					}
					sum, err := fleet.Run(run)
					if err != nil {
						t.Fatalf("generator seed %d, workers=%d cache=%t: %v", g, workers, cached, err)
					}
					if !(sum.MeanAvailability >= 0 && sum.MeanAvailability <= 1) || !(sum.EnergyKWh >= 0) ||
						math.IsInf(sum.EnergyKWh, 0) || sum.Scheduled+sum.Rejected != attempts {
						t.Fatalf("generator seed %d: availability %v, energy %v kWh, %d scheduled + %d rejected of %d attempts",
							g, sum.MeanAvailability, sum.EnergyKWh, sum.Scheduled, sum.Rejected, attempts)
					}
					fp := sum.Fingerprint()
					if want == "" {
						want = fp
						golden, ok := goldenGeneratedSHA[g]
						switch got := sha256Hex(fp); {
						case !goldenPlatform():
							t.Logf("skipping golden comparison on %s/%s (recorded on linux/amd64)", runtime.GOOS, runtime.GOARCH)
						case !ok:
							t.Logf("generator seed %d: no golden recorded; fingerprint %s", g, got)
						case got != golden:
							t.Errorf("generator seed %d: fingerprint diverged from the recorded golden:\n got %s\nwant %s", g, got, golden)
						}
						continue
					}
					if fp != want {
						t.Fatalf("generator seed %d: fingerprint diverged at workers=%d cache=%t:\n--- first cell ---\n%s--- this cell ---\n%s",
							g, workers, cached, want, fp)
					}
				}
			}
		})
	}
}
