// Package stress implements the stress-test development layer of
// Section 3.B: diagnostic "viruses" that cause maximum voltage noise,
// power consumption and error rates, generated with a genetic
// algorithm (the paper cites AUDIT-style automatic stress-test
// generation). The viruses represent a pathogenic worst case that
// real-life workloads are unlikely to reach, so the margins they
// reveal are safe initial Extended Operating Points, while still being
// far less pessimistic than the manufacturer guardbands.
//
// A virus genome is an instruction-mix recipe: the fractions of
// vector-burst, scalar ALU, memory, branch and idle (nop) slots in the
// kernel's inner loop, plus the burst period that positions the
// current steps relative to the power-delivery network's resonance.
// Expressing a genome yields a cpu.Benchmark whose droop intensity,
// cache stress and activity derive mechanistically from the mix.
package stress

import (
	"fmt"
	"math"

	"uniserver/internal/cpu"
	"uniserver/internal/rng"
)

// Genome is an instruction-mix recipe for a stress kernel.
type Genome struct {
	// Instruction-class weights (relative, normalized on expression).
	VecFrac, ALUFrac, MemFrac, BranchFrac, NopFrac float64
	// BurstPeriod is the loop length in cycles between vector bursts;
	// current steps at the PDN resonant period excite the largest
	// droops.
	BurstPeriod int
}

// resonantPeriod is the burst period (in cycles) matching the modeled
// power-delivery network's first resonance.
const resonantPeriod = 16

// Normalize returns the genome with non-negative weights summing to 1
// and the burst period clamped to [1, 256]. A genome with all-zero
// weights normalizes to pure nops.
func (g Genome) Normalize() Genome {
	clamp := func(v float64) float64 {
		if v < 0 || math.IsNaN(v) {
			return 0
		}
		// Cap individual weights so that pathological inputs cannot
		// overflow the normalization sum.
		if v > 1e9 {
			return 1e9
		}
		return v
	}
	g.VecFrac, g.ALUFrac, g.MemFrac = clamp(g.VecFrac), clamp(g.ALUFrac), clamp(g.MemFrac)
	g.BranchFrac, g.NopFrac = clamp(g.BranchFrac), clamp(g.NopFrac)
	sum := g.VecFrac + g.ALUFrac + g.MemFrac + g.BranchFrac + g.NopFrac
	if sum == 0 {
		g.NopFrac = 1
		sum = 1
	}
	g.VecFrac /= sum
	g.ALUFrac /= sum
	g.MemFrac /= sum
	g.BranchFrac /= sum
	g.NopFrac /= sum
	if g.BurstPeriod < 1 {
		g.BurstPeriod = 1
	}
	if g.BurstPeriod > 256 {
		g.BurstPeriod = 256
	}
	return g
}

// resonance returns the droop amplification factor for the burst
// period: a Gaussian peak at the PDN resonant period.
func resonance(period int) float64 {
	d := float64(period - resonantPeriod)
	return math.Exp(-d * d / (2 * 36))
}

// Express compiles the genome into a benchmark profile. The droop
// intensity is maximized by alternating high-current vector bursts
// with idle slots (largest di/dt) at the resonant period; cache stress
// follows the memory fraction; activity follows the switching-heavy
// fractions.
func (g Genome) Express(name string) cpu.Benchmark {
	n := g.Normalize()
	didt := 4 * n.VecFrac * n.NopFrac // peaks at vec=nop=0.5
	intensity := 0.68*didt + 0.12*n.MemFrac + 0.32*didt*resonance(n.BurstPeriod)
	if intensity > 1 {
		intensity = 1
	}
	cacheStress := n.MemFrac*0.9 + 0.1*n.BranchFrac
	if cacheStress > 1 {
		cacheStress = 1
	}
	activity := n.VecFrac*1.0 + n.ALUFrac*0.7 + n.MemFrac*0.45 + n.BranchFrac*0.5
	if activity > 1 {
		activity = 1
	}
	if activity <= 0 {
		activity = 0.01
	}
	return cpu.Benchmark{
		Name:           name,
		DroopIntensity: intensity,
		CacheStress:    cacheStress,
		Activity:       activity,
	}
}

// Objective selects what the genetic algorithm maximizes.
type Objective int

const (
	// MaxVoltageNoise evolves a dI/dt virus: the kernel that crashes
	// the part at the highest supply voltage.
	MaxVoltageNoise Objective = iota
	// MaxCacheStress evolves a memory-array virus: the kernel that
	// provokes the most correctable cache ECC events near Vmin.
	MaxCacheStress
	// MaxPower evolves a thermal/power virus: the kernel with the
	// highest switching activity.
	MaxPower
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MaxVoltageNoise:
		return "max-voltage-noise"
	case MaxCacheStress:
		return "max-cache-stress"
	case MaxPower:
		return "max-power"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// GAConfig tunes the genetic algorithm.
type GAConfig struct {
	PopSize     int
	Generations int
	TournamentK int
	// MutSigma is the Gaussian mutation step on weights.
	MutSigma float64
	// Elite is the number of top genomes copied unchanged.
	Elite int
}

// DefaultGAConfig returns a configuration that converges in a few
// hundred evaluations.
func DefaultGAConfig() GAConfig {
	return GAConfig{PopSize: 32, Generations: 25, TournamentK: 3, MutSigma: 0.12, Elite: 2}
}

func (c GAConfig) validate() error {
	if c.PopSize < 2 || c.Generations < 1 || c.TournamentK < 1 || c.Elite < 0 || c.Elite >= c.PopSize {
		return fmt.Errorf("stress: invalid GA config %+v", c)
	}
	return nil
}

// EvolveResult reports the outcome of a virus-generation run.
type EvolveResult struct {
	Best    Genome
	Virus   cpu.Benchmark
	Fitness float64
	// History is the best fitness per generation (monotone
	// non-decreasing thanks to elitism).
	History []float64
}

// fitness scores a genome on the target machine. Higher is more
// stressful.
func fitness(obj Objective, g Genome, m *cpu.Machine, core int) float64 {
	b := g.Express("candidate")
	switch obj {
	case MaxVoltageNoise:
		// The most stressful virus crashes at the highest voltage
		// (leaves the least undervolt headroom). Average a few sweeps
		// so run-to-run droop noise does not dominate selection.
		total := 0
		const sweeps = 3
		for i := 0; i < sweeps; i++ {
			total += cpu.WorstCrash(m.UndervoltSweep(core, b, 1)).CrashVoltageMV
		}
		return float64(total) / sweeps
	case MaxCacheStress:
		total := 0
		for _, r := range m.UndervoltSweep(core, b, 1) {
			total += r.ECCErrors
		}
		// Tie-break by cache stress so evolution has gradient even on
		// parts that hide ECC counts.
		return float64(total) + b.CacheStress
	case MaxPower:
		return b.Activity
	default:
		panic("stress: unknown objective")
	}
}

// mutate perturbs one genome.
func mutate(g Genome, sigma float64, src *rng.Source) Genome {
	g.VecFrac += src.Normal(0, sigma)
	g.ALUFrac += src.Normal(0, sigma)
	g.MemFrac += src.Normal(0, sigma)
	g.BranchFrac += src.Normal(0, sigma)
	g.NopFrac += src.Normal(0, sigma)
	if src.Bernoulli(0.3) {
		g.BurstPeriod += src.Intn(9) - 4
	}
	return g.Normalize()
}

// crossover blends two genomes uniformly.
func crossover(a, b Genome, src *rng.Source) Genome {
	pick := func(x, y float64) float64 {
		if src.Bool() {
			return x
		}
		return y
	}
	child := Genome{
		VecFrac:    pick(a.VecFrac, b.VecFrac),
		ALUFrac:    pick(a.ALUFrac, b.ALUFrac),
		MemFrac:    pick(a.MemFrac, b.MemFrac),
		BranchFrac: pick(a.BranchFrac, b.BranchFrac),
		NopFrac:    pick(a.NopFrac, b.NopFrac),
	}
	if src.Bool() {
		child.BurstPeriod = a.BurstPeriod
	} else {
		child.BurstPeriod = b.BurstPeriod
	}
	return child.Normalize()
}

// randomGenome samples a fresh genome.
func randomGenome(src *rng.Source) Genome {
	return Genome{
		VecFrac:     src.Float64(),
		ALUFrac:     src.Float64(),
		MemFrac:     src.Float64(),
		BranchFrac:  src.Float64(),
		NopFrac:     src.Float64(),
		BurstPeriod: 1 + src.Intn(64),
	}.Normalize()
}

// Evolve runs the genetic algorithm against one core of the target
// machine and returns the best virus found.
func Evolve(cfg GAConfig, obj Objective, m *cpu.Machine, core int, src *rng.Source) (EvolveResult, error) {
	if err := cfg.validate(); err != nil {
		return EvolveResult{}, err
	}
	if core < 0 || core >= m.Spec.Cores {
		return EvolveResult{}, fmt.Errorf("stress: core %d out of range", core)
	}

	pop := make([]scored, cfg.PopSize)
	for i := range pop {
		g := randomGenome(src)
		if i == 0 {
			// Seed the population with the hand-coded dI/dt kernel so
			// evolution starts from known stress patterns (the AUDIT
			// approach seeds from archived viruses too).
			g = Genome{VecFrac: 0.5, NopFrac: 0.5, BurstPeriod: resonantPeriod}
		}
		pop[i] = scored{g, fitness(obj, g, m, core)}
	}

	best := pop[0]
	for _, s := range pop[1:] {
		if s.f > best.f {
			best = s
		}
	}

	tournament := func() scored {
		w := pop[src.Intn(len(pop))]
		for i := 1; i < cfg.TournamentK; i++ {
			c := pop[src.Intn(len(pop))]
			if c.f > w.f {
				w = c
			}
		}
		return w
	}

	var history []float64
	for gen := 0; gen < cfg.Generations; gen++ {
		next := make([]scored, 0, cfg.PopSize)
		// Elitism: keep the current best genomes.
		sortByFitness(pop)
		next = append(next, pop[:cfg.Elite]...)
		for len(next) < cfg.PopSize {
			child := crossover(tournament().g, tournament().g, src)
			child = mutate(child, cfg.MutSigma, src)
			next = append(next, scored{child, fitness(obj, child, m, core)})
		}
		pop = next
		for _, s := range pop {
			if s.f > best.f {
				best = s
			}
		}
		history = append(history, best.f)
	}

	return EvolveResult{
		Best:    best.g,
		Virus:   best.g.Express(fmt.Sprintf("virus-%s", obj)),
		Fitness: best.f,
		History: history,
	}, nil
}

// scored pairs a genome with its evaluated fitness.
type scored struct {
	g Genome
	f float64
}

// sortByFitness sorts descending by fitness (insertion sort; the
// population is small).
func sortByFitness(pop []scored) {
	for i := 1; i < len(pop); i++ {
		for j := i; j > 0 && pop[j].f > pop[j-1].f; j-- {
			pop[j], pop[j-1] = pop[j-1], pop[j]
		}
	}
}

// HandCodedViruses returns fixed stress kernels for deployments that
// skip GA generation: a dI/dt resonance virus and a cache thrasher.
func HandCodedViruses() []cpu.Benchmark {
	didt := Genome{VecFrac: 0.5, NopFrac: 0.5, BurstPeriod: resonantPeriod}.Express("virus-didt")
	cacheThrash := Genome{MemFrac: 0.85, BranchFrac: 0.15, BurstPeriod: 8}.Express("virus-cache")
	return []cpu.Benchmark{didt, cacheThrash}
}
