package stress

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"uniserver/internal/cpu"
	"uniserver/internal/rng"
)

func TestNormalizeSumsToOne(t *testing.T) {
	err := quick.Check(func(v, a, m, b, n float64, p int) bool {
		g := Genome{v, a, m, b, n, p}.Normalize()
		sum := g.VecFrac + g.ALUFrac + g.MemFrac + g.BranchFrac + g.NopFrac
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		if g.VecFrac < 0 || g.ALUFrac < 0 || g.MemFrac < 0 || g.BranchFrac < 0 || g.NopFrac < 0 {
			return false
		}
		return g.BurstPeriod >= 1 && g.BurstPeriod <= 256
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeZeroGenome(t *testing.T) {
	g := Genome{}.Normalize()
	if g.NopFrac != 1 {
		t.Fatalf("zero genome should normalize to pure nops: %+v", g)
	}
}

func TestExpressBounds(t *testing.T) {
	err := quick.Check(func(v, a, m, b, n float64, p int) bool {
		bench := Genome{v, a, m, b, n, p}.Express("x")
		return bench.DroopIntensity >= 0 && bench.DroopIntensity <= 1 &&
			bench.CacheStress >= 0 && bench.CacheStress <= 1 &&
			bench.Activity > 0 && bench.Activity <= 1
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestResonantVirusBeatsOffResonance(t *testing.T) {
	onRes := Genome{VecFrac: 0.5, NopFrac: 0.5, BurstPeriod: resonantPeriod}.Express("on")
	offRes := Genome{VecFrac: 0.5, NopFrac: 0.5, BurstPeriod: 200}.Express("off")
	if onRes.DroopIntensity <= offRes.DroopIntensity {
		t.Fatalf("resonant virus (%v) should out-droop off-resonant (%v)",
			onRes.DroopIntensity, offRes.DroopIntensity)
	}
}

func TestDIDTVirusExceedsRealWorkloads(t *testing.T) {
	virus := HandCodedViruses()[0]
	for _, b := range cpu.SPECSuite() {
		if virus.DroopIntensity <= b.DroopIntensity {
			t.Fatalf("virus intensity %v does not exceed %s (%v)",
				virus.DroopIntensity, b.Name, b.DroopIntensity)
		}
	}
}

func TestCacheVirusStressesCaches(t *testing.T) {
	cacheVirus := HandCodedViruses()[1]
	if cacheVirus.CacheStress < 0.7 {
		t.Fatalf("cache virus stress = %v, want high", cacheVirus.CacheStress)
	}
}

func TestObjectiveString(t *testing.T) {
	if MaxVoltageNoise.String() != "max-voltage-noise" ||
		MaxCacheStress.String() != "max-cache-stress" ||
		MaxPower.String() != "max-power" {
		t.Fatal("objective names wrong")
	}
	if !strings.HasPrefix(Objective(9).String(), "Objective(") {
		t.Fatal("unknown objective fallback wrong")
	}
}

func TestGAConfigValidation(t *testing.T) {
	bad := []GAConfig{
		{PopSize: 1, Generations: 1, TournamentK: 1},
		{PopSize: 10, Generations: 0, TournamentK: 1},
		{PopSize: 10, Generations: 1, TournamentK: 0},
		{PopSize: 10, Generations: 1, TournamentK: 1, Elite: 10},
	}
	m := cpu.NewMachine(cpu.PartI5_4200U(), 1)
	for i, cfg := range bad {
		if _, err := Evolve(cfg, MaxPower, m, 0, rng.New(1)); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := Evolve(DefaultGAConfig(), MaxPower, m, 99, rng.New(1)); err == nil {
		t.Error("out-of-range core accepted")
	}
}

func TestEvolveDeterministic(t *testing.T) {
	cfg := GAConfig{PopSize: 8, Generations: 4, TournamentK: 2, MutSigma: 0.1, Elite: 1}
	m1 := cpu.NewMachine(cpu.PartI5_4200U(), 7)
	m2 := cpu.NewMachine(cpu.PartI5_4200U(), 7)
	r1, err := Evolve(cfg, MaxPower, m1, 0, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Evolve(cfg, MaxPower, m2, 0, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best != r2.Best || r1.Fitness != r2.Fitness {
		t.Fatal("evolution not deterministic")
	}
}

func TestEvolveHistoryMonotone(t *testing.T) {
	m := cpu.NewMachine(cpu.PartI5_4200U(), 11)
	res, err := Evolve(DefaultGAConfig(), MaxVoltageNoise, m, 0, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != DefaultGAConfig().Generations {
		t.Fatalf("history length = %d", len(res.History))
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1] {
			t.Fatalf("best fitness regressed at generation %d", i)
		}
	}
}

func TestEvolveMaxPowerFindsHighActivity(t *testing.T) {
	m := cpu.NewMachine(cpu.PartI5_4200U(), 13)
	res, err := Evolve(DefaultGAConfig(), MaxPower, m, 0, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// The optimum is a pure-vector kernel with activity ~1.
	if res.Virus.Activity < 0.95 {
		t.Fatalf("power virus activity = %v, want ~1", res.Virus.Activity)
	}
}

// TestEvolvedVoltageVirusRevealsSafeMargins verifies the Section 3.B
// claim chain: the GA virus crashes at a voltage at least as high as
// any real workload (it is the pathogenic worst case), so margins
// derived from it are safe for real workloads, while still being far
// below the manufacturer guardband.
func TestEvolvedVoltageVirusRevealsSafeMargins(t *testing.T) {
	m := cpu.NewMachine(cpu.PartI5_4200U(), 17)
	res, err := Evolve(DefaultGAConfig(), MaxVoltageNoise, m, 0, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if res.Virus.DroopIntensity < 0.9 {
		t.Fatalf("voltage virus intensity = %v, want near max", res.Virus.DroopIntensity)
	}
	// Compare crash voltages: virus must crash at >= voltage of every
	// real benchmark (averaged over sweeps to damp run noise).
	virusCrash := 0
	for r := 0; r < 5; r++ {
		virusCrash += cpu.WorstCrash(m.UndervoltSweep(0, res.Virus, 1)).CrashVoltageMV
	}
	for _, b := range cpu.SPECSuite() {
		benchCrash := 0
		for r := 0; r < 5; r++ {
			benchCrash += cpu.WorstCrash(m.UndervoltSweep(0, b, 1)).CrashVoltageMV
		}
		if virusCrash < benchCrash {
			t.Errorf("virus crash (%d) below real workload %s (%d): margins would be unsafe",
				virusCrash/5, b.Name, benchCrash/5)
		}
	}
	// And the virus-revealed margin still beats the guardbanded rating.
	guard := m.Chip.GuardbandedVminMV(m.Spec.Nominal.FreqMHz)
	if float64(virusCrash/5) >= guard {
		t.Errorf("virus crash %d exceeds guardbanded Vmin %.0f: no recoverable margin",
			virusCrash/5, guard)
	}
}

func TestEvolveCacheStressObjective(t *testing.T) {
	m := cpu.NewMachine(cpu.PartI5_4200U(), 19)
	res, err := Evolve(GAConfig{PopSize: 16, Generations: 10, TournamentK: 3, MutSigma: 0.15, Elite: 2},
		MaxCacheStress, m, 0, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if res.Virus.CacheStress < 0.6 {
		t.Fatalf("cache virus stress = %v, want high", res.Virus.CacheStress)
	}
}

func BenchmarkEvolveVoltageNoise(b *testing.B) {
	cfg := GAConfig{PopSize: 8, Generations: 5, TournamentK: 2, MutSigma: 0.1, Elite: 1}
	m := cpu.NewMachine(cpu.PartI5_4200U(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evolve(cfg, MaxVoltageNoise, m, 0, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
