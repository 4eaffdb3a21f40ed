// Package rng provides a small, deterministic pseudo-random number
// generator and the distribution samplers used throughout the UniServer
// simulators.
//
// Every stochastic component in this repository takes an explicit
// *Source so that experiments are exactly reproducible: the same seed
// always yields the same characterization results, fault-injection
// outcomes and scheduler decisions. The generator is SplitMix64
// (Steele, Lea, Flood; "Fast splittable pseudorandom number
// generators", OOPSLA 2014), which passes BigCrush and supports cheap
// stream splitting, making it well suited to hierarchical simulations
// where each chip, core, DIMM and daemon owns an independent stream.
package rng

import "math"

// goldenGamma is the odd constant used by SplitMix64 to advance the
// state; it is the closest odd integer to 2^64/phi.
const goldenGamma = 0x9E3779B97F4A7C15

// Source is a deterministic SplitMix64 random number generator.
// The zero value is a valid generator seeded with 0; prefer New so
// that intent is explicit.
type Source struct {
	state uint64
}

// New returns a Source seeded with the given value. Two Sources with
// the same seed produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child stream from s. The child's seed
// is drawn from the parent stream, so sibling order matters but the
// construction keeps parent and children statistically independent.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64()}
}

// SplitLabeled derives an independent child stream bound to a string
// label, so that adding a new consumer does not perturb the streams of
// existing consumers that use different labels.
func (s *Source) SplitLabeled(label string) *Source {
	return &Source{state: s.state ^ uint64(MakeLabel(label))}
}

// Label is a precomputed SplitLabeled key: the FNV-1a hash of the
// label string. Hot paths that split on the same label every window
// hoist the hash with MakeLabel (usually into a package-level var) and
// call SplitWith, which neither hashes nor heap-allocates.
type Label uint64

// MakeLabel hashes a label string once. MakeLabel + SplitWith is
// stream-identical to SplitLabeled on the same string.
func MakeLabel(label string) Label {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return Label(h)
}

// SplitWith derives the same child stream SplitLabeled would for the
// label behind l, returned by value so callers can keep it on the
// stack or in a reused scratch slot.
func (s *Source) SplitWith(l Label) Source {
	return Source{state: s.state ^ uint64(l)}
}

// Uint64 returns the next value of the stream.
func (s *Source) Uint64() uint64 {
	s.state += goldenGamma
	return mix(s.state)
}

// mix is SplitMix64's output function. Draw k of a stream whose state
// is x is mix(x + k·γ), so every position is addressable in O(1).
func mix(x uint64) uint64 {
	y := (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	z := (y ^ (y >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Skip advances the stream past its next n draws, as n calls to
// Uint64 would, in O(1).
func (s *Source) Skip(n uint64) {
	s.state += n * goldenGamma
}

// Peek returns draw k counted from the current position without
// advancing the stream: Peek(1) is what the next Uint64 returns, and
// Peek(0) is what the previous one returned. A block of draws read
// through Peek has no serial dependency between its members.
func (s *Source) Peek(k uint64) uint64 {
	return mix(s.state + k*goldenGamma)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Bool returns true with probability 1/2.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0, 1]). It
// draws nothing when p <= 0 or p >= 1, and one value otherwise (a NaN
// p draws one and returns false).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Uint64()>>11 < Threshold(p)
}

// Threshold is Bernoulli's integer form: for 0 < p < 1 a draw u is a
// success iff u>>11 < Threshold(p). It equals Float64() < p exactly,
// because u>>11 and p·2^53 are both exact in float64 and the first is
// an integer, so it compares against the ceiling of the second. It is
// 0 for p <= 0 and NaN (never a success) and 2^53 for p >= 1 (always).
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Range returns a uniform value in [lo, hi). It panics if hi < lo.
func (s *Source) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// Normal returns a sample from the normal distribution with the given
// mean and standard deviation, using the Marsaglia polar method.
func (s *Source) Normal(mean, stddev float64) float64 {
	u, q := s.polar()
	return polarSample(mean, stddev, u, q)
}

// NormalAbove draws exactly what Normal(mean, stddev) draws and
// reports whether the sample exceeds x, returning the sample when it
// does (and 0 when it does not). It skips the log and square root
// when the polar pair bounds the sample at or below x: with q in
// [2^(e-1), 2^e), the sample is at most mean + stddev·u·√(-2 ln q / q)
// ≤ mean + stddev·√(2(1-e)·ln 2) for u > 0, and at most mean for
// u ≤ 0. The bound carries a relative slack of 1e-6, far above the
// rounding of either side, and rounding is monotonic, so a skip can
// never flip the comparison.
func (s *Source) NormalAbove(mean, stddev, x float64) (float64, bool) {
	u, q := s.polar()
	if stddev >= 0 {
		b := 0.0
		if u > 0 {
			b = math.Inf(1)
			if _, e := math.Frexp(q); -e < len(polarBound) {
				b = polarBound[-e]
			}
		}
		if mean+stddev*b <= x {
			return 0, false
		}
	}
	if v := polarSample(mean, stddev, u, q); v > x {
		return v, true
	}
	return 0, false
}

// polar draws a Marsaglia polar pair and returns its first coordinate
// u and q = u² + v², 0 < q < 1.
func (s *Source) polar() (u, q float64) {
	for {
		u = 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q = u*u + v*v
		if q > 0 && q < 1 {
			return u, q
		}
	}
}

// polarSample turns a polar pair into the normal sample. The
// conversion rounds the scaled deviate before the mean is added, so no
// build may fuse the two and mean + Normal(0, sd) is always
// Normal(mean, sd).
func polarSample(mean, stddev, u, q float64) float64 {
	return mean + float64(stddev*u*math.Sqrt(-2*math.Log(q)/q))
}

// polarBound[k] bounds u·√(-2 ln q / q) for u > 0 and q whose Frexp
// exponent is -k: √(2(1+k)·ln 2)·(1+1e-6). A q in (0, 1) drawn from
// two Float64s has k ≤ 104.
var polarBound = func() (b [128]float64) {
	for k := range b {
		b[k] = math.Sqrt(2*float64(1+k)*math.Ln2) * (1 + 1e-6)
	}
	return b
}()

// LogNormal returns a sample whose natural logarithm is normally
// distributed with parameters mu and sigma. DRAM cell retention times
// are conventionally modeled as log-normal (Liu et al., ISCA 2013).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Exponential returns a sample from the exponential distribution with
// the given rate (lambda). It panics if rate <= 0.
func (s *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u) / rate
		}
	}
}

// Poisson returns a sample from the Poisson distribution with the
// given mean. For small means it uses Knuth's product method; for
// large means it falls back to a normal approximation, which is
// adequate for the event-count magnitudes used by the simulators.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		v := s.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	limit := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Binomial returns the number of successes in n Bernoulli trials with
// success probability p. For large n·p it uses a Poisson or normal
// approximation so that simulating billions of DRAM cells stays cheap.
func (s *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	switch {
	case n <= 64:
		k := 0
		for i := 0; i < n; i++ {
			if s.Float64() < p {
				k++
			}
		}
		return k
	case mean < 32:
		// Rare-event regime: Poisson approximation.
		k := s.Poisson(mean)
		if k > n {
			return n
		}
		return k
	default:
		v := s.Normal(mean, math.Sqrt(mean*(1-p)))
		if v < 0 {
			return 0
		}
		if v > float64(n) {
			return n
		}
		return int(v + 0.5)
	}
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap
// function, mirroring math/rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a uniformly chosen index weighted by the given
// non-negative weights. It panics if weights is empty or sums to zero.
func (s *Source) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: Choice with negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("rng: Choice with empty or zero-sum weights")
	}
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// State returns the generator's internal state word — the persistence
// hook snapshot serialization uses. A Source restored with FromState
// continues the exact stream of its origin.
func (s *Source) State() uint64 { return s.state }

// FromState reconstructs a Source at the given state word, resuming
// the stream exactly where State captured it.
func FromState(state uint64) *Source {
	return &Source{state: state}
}
