package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first values")
	}
}

func TestSplitLabeledStable(t *testing.T) {
	a := New(9).SplitLabeled("cpu")
	b := New(9).SplitLabeled("cpu")
	if a.Uint64() != b.Uint64() {
		t.Fatal("labeled splits with same label diverged")
	}
	c := New(9).SplitLabeled("dram")
	d := New(9).SplitLabeled("cpu")
	if c.Uint64() == d.Uint64() {
		t.Fatal("labeled splits with different labels collided")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Errorf("normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(19)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exponential(2)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("exponential(2) mean = %v, want ~0.5", mean)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	New(1).Exponential(0)
}

func TestPoissonMean(t *testing.T) {
	s := New(23)
	for _, mean := range []float64{0.5, 4, 60, 800} {
		const n = 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / n
		tol := 4 * math.Sqrt(mean/n) * 2
		if math.Abs(got-mean) > tol+0.05 {
			t.Errorf("Poisson(%v) mean = %v, want within %v", mean, got, tol)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	if got := New(1).Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
}

func TestBinomialEdges(t *testing.T) {
	s := New(29)
	if got := s.Binomial(100, 0); got != 0 {
		t.Errorf("Binomial(100,0) = %d, want 0", got)
	}
	if got := s.Binomial(100, 1); got != 100 {
		t.Errorf("Binomial(100,1) = %d, want 100", got)
	}
	if got := s.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0,0.5) = %d, want 0", got)
	}
}

func TestBinomialMean(t *testing.T) {
	s := New(31)
	cases := []struct {
		n int
		p float64
	}{
		{20, 0.3},     // exact path
		{1000, 0.001}, // Poisson path
		{100000, 0.4}, // normal path
	}
	for _, c := range cases {
		const trials = 5000
		sum := 0.0
		for i := 0; i < trials; i++ {
			v := s.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d,%v) out of range: %d", c.n, c.p, v)
			}
			sum += float64(v)
		}
		mean := sum / trials
		want := float64(c.n) * c.p
		sd := math.Sqrt(float64(c.n) * c.p * (1 - c.p))
		if math.Abs(mean-want) > 5*sd/math.Sqrt(trials)+0.2 {
			t.Errorf("Binomial(%d,%v) mean = %v, want ~%v", c.n, c.p, mean, want)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(37)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

// refBernoulli is Bernoulli as the float comparison it replaced: the
// sequential reference the integer threshold must match draw for draw.
func refBernoulli(s *Source, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// bernoulliEdges are the probabilities the simulators and the
// equivalence tests exercise: the no-draw edges, the smallest
// subnormal, the DRAM telegraph's per-window toggle (0.02) and its
// one-day closed form (0.5·(1−(1−2·0.02)^1440)), and the largest
// float below 1.
var bernoulliEdges = []float64{
	math.NaN(), math.Copysign(0, -1), 0, 5e-324, 1e-9, 0.02,
	0.5 * (1 - math.Pow(1-2*0.02, 1440)), 0.5, math.Nextafter(1, 0), 1,
}

// TestBernoulliMatchesFloatReference: the integer-threshold Bernoulli
// returns what the float comparison did and leaves the stream where it
// did, after every call, at every edge probability.
func TestBernoulliMatchesFloatReference(t *testing.T) {
	for _, p := range bernoulliEdges {
		a, b := New(53), New(53)
		for i := 0; i < 20000; i++ {
			got, want := a.Bernoulli(p), refBernoulli(b, p)
			if got != want || a.State() != b.State() {
				t.Fatalf("p=%g call %d: got %t state %#x, reference %t state %#x", p, i, got, a.State(), want, b.State())
			}
		}
	}
}

// TestThresholdIsExact: a draw succeeds under the integer threshold
// iff its float form is below p, checked at the threshold itself,
// which by monotonicity covers every draw.
func TestThresholdIsExact(t *testing.T) {
	for _, p := range bernoulliEdges {
		if !(p > 0 && p < 1) {
			continue
		}
		th := Threshold(p)
		if th == 0 || th > 1<<53 {
			t.Fatalf("p=%g: threshold %d outside (0, 2^53]", p, th)
		}
		if float64(th-1)/(1<<53) >= p {
			t.Fatalf("p=%g: draw %d below the threshold is not a float success", p, th-1)
		}
		if th < 1<<53 && float64(th)/(1<<53) < p {
			t.Fatalf("p=%g: draw %d at the threshold is a float success", p, th)
		}
	}
	if Threshold(math.NaN()) != 0 || Threshold(-1) != 0 || Threshold(1) != 1<<53 || Threshold(2) != 1<<53 {
		t.Fatal("threshold edges wrong")
	}
}

// skipCounts are the Skip/Peek distances the counter-addressing
// property is checked at.
var skipCounts = []uint64{0, 1, 1 << 32, math.MaxUint64}

// TestSkipMatchesSequential: Skip(n) leaves the stream where n Uint64
// calls would. Distances too long to draw one by one are composed from
// a checked shorter one (2^32 = 2^16 skips of 2^16) or checked through
// wraparound (2^64−1 steps back exactly one draw).
func TestSkipMatchesSequential(t *testing.T) {
	seq := func(seed, n uint64) uint64 {
		s := New(seed)
		for i := uint64(0); i < n; i++ {
			s.Uint64()
		}
		return s.State()
	}
	skip := func(seed, n uint64) uint64 {
		s := New(seed)
		s.Skip(n)
		return s.State()
	}
	for _, seed := range []uint64{0, 7, math.MaxUint64} {
		for _, n := range []uint64{0, 1, 2, 1 << 16} {
			if got, want := skip(seed, n), seq(seed, n); got != want {
				t.Fatalf("seed %d: Skip(%d) state %#x, sequential %#x", seed, n, got, want)
			}
		}
		s := New(seed)
		for i := 0; i < 1<<16; i++ {
			s.Skip(1 << 16)
		}
		if got := skip(seed, 1<<32); got != s.State() {
			t.Fatalf("seed %d: Skip(2^32) %#x, 2^16 skips of 2^16 %#x", seed, got, s.State())
		}
		s = New(seed)
		last := s.Uint64()
		s.Skip(math.MaxUint64)
		if got := s.Uint64(); got != last || s.State() != seq(seed, 1) {
			t.Fatalf("seed %d: Skip(2^64-1) did not step back one draw", seed)
		}
		for _, n := range skipCounts {
			a := New(seed)
			a.Skip(n)
			a.Skip(-n)
			if a.State() != seed {
				t.Fatalf("seed %d: Skip(%d) then Skip(-%d) moved the stream", seed, n, n)
			}
		}
	}
}

// TestPeekMatchesSequential: Peek(k) is draw k from the current
// position (Peek(k) = Skip(k−1) then Uint64, Peek(0) the previous
// draw) and never moves the stream.
func TestPeekMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{0, 7, math.MaxUint64} {
		s := New(seed)
		prev := s.Uint64()
		cur := s.Uint64()
		state := s.State()
		for _, k := range skipCounts {
			got := s.Peek(k)
			if s.State() != state {
				t.Fatalf("seed %d: Peek(%d) moved the stream", seed, k)
			}
			var want uint64
			switch k {
			case 0:
				want = cur
			case math.MaxUint64:
				want = prev
			default:
				r := FromState(state)
				r.Skip(k - 1)
				want = r.Uint64()
			}
			if got != want {
				t.Fatalf("seed %d: Peek(%d) = %#x, want %#x", seed, k, got, want)
			}
		}
		r := FromState(state)
		for k := uint64(1); k <= 64; k++ {
			if got, want := s.Peek(k), r.Uint64(); got != want {
				t.Fatalf("seed %d: Peek(%d) = %#x, sequential draw %#x", seed, k, got, want)
			}
		}
	}
}

func TestRangeBounds(t *testing.T) {
	s := New(43)
	for i := 0; i < 1000; i++ {
		v := s.Range(-5, 5)
		if v < -5 || v >= 5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := New(47)
	xs := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %d != %d", got, sum)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Normal(0, 1)
	}
}

func BenchmarkBinomialLarge(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Binomial(1<<30, 1e-9)
	}
}

// TestNormalAboveMatchesNormal: NormalAbove leaves the stream where
// Normal leaves it, its verdict is Normal's sample > x, and the sample
// it returns is Normal's bit for bit (and mean + Normal(0, sd)'s,
// which is how the ECC-onset draw uses it) — for thresholds drawn
// around the distribution, far out in the tails, exactly at the
// computed sample and one ulp below it, and on the skip bound itself.
func TestNormalAboveMatchesNormal(t *testing.T) {
	g := New(2024)
	skipped := 0
	check := func(state uint64, mean, sd, x float64) {
		t.Helper()
		ref := FromState(state)
		want := ref.Normal(mean, sd)
		got := FromState(state)
		v, above := got.NormalAbove(mean, sd, x)
		if got.State() != ref.State() {
			t.Fatalf("state %#x mean %g sd %g x %g: stream at %#x, Normal leaves it at %#x",
				state, mean, sd, x, got.State(), ref.State())
		}
		if above != (want > x) {
			t.Fatalf("state %#x mean %g sd %g x %g: verdict %t, Normal drew %g", state, mean, sd, x, above, want)
		}
		if above {
			shifted := mean + FromState(state).Normal(0, sd)
			if math.Float64bits(v) != math.Float64bits(want) || math.Float64bits(v) != math.Float64bits(shifted) {
				t.Fatalf("state %#x mean %g sd %g x %g: sample %g, Normal %g, mean+Normal(0,sd) %g",
					state, mean, sd, x, v, want, shifted)
			}
		}
		if u, q := FromState(state).polar(); sd >= 0 {
			b := 0.0
			if u > 0 {
				_, e := math.Frexp(q)
				b = polarBound[-e]
			}
			if mean+sd*b <= x {
				skipped++
			}
		}
	}
	for i := 0; i < 20000; i++ {
		state := g.Uint64()
		mean := g.Range(-50, 50)
		sd := g.Range(0, 10)
		switch i % 10 {
		case 0:
			sd = 0
		case 1:
			sd = -sd // no skip: the bound assumes sd >= 0
		}
		sample := FromState(state).Normal(mean, sd)
		check(state, mean, sd, mean+sd*g.Range(-4, 4))
		check(state, mean, sd, mean+sd*g.Range(3, 40))
		check(state, mean, sd, sample)
		check(state, mean, sd, math.Nextafter(sample, math.Inf(-1)))
		check(state, mean, sd, math.Nextafter(sample, math.Inf(1)))
		if u, q := FromState(state).polar(); u > 0 && sd >= 0 {
			_, e := math.Frexp(q)
			bound := mean + sd*polarBound[-e]
			check(state, mean, sd, bound)
			check(state, mean, sd, math.Nextafter(bound, math.Inf(-1)))
		}
	}
	if skipped == 0 {
		t.Fatal("no threshold took the skip path")
	}
}

// TestPoissonTinyMeanDrawsOnce pins the fact the DRAM window's
// zero-draw screen rests on: for 0 < mean ≤ 2^-56, exp(−mean) is at
// least 1−2^-53, the largest Float64, so Poisson(mean) returns 0 after
// exactly one draw — whichever state the stream is in, including the
// one whose next draw is the largest Uint64.
func TestPoissonTinyMeanDrawsOnce(t *testing.T) {
	const top = 1 - 0x1p-53
	gen := New(11)
	means := []float64{math.SmallestNonzeroFloat64, 0x1p-56}
	for e := -1074; e <= -56; e++ {
		means = append(means, math.Ldexp(1, e))
		if e < -56 {
			// A random mantissa in [1, 2) at this exponent; below the
			// normal range Ldexp rounds it into a subnormal.
			means = append(means, math.Ldexp(1+gen.Float64(), e))
		}
	}
	for _, mean := range means {
		if !(mean > 0 && mean <= 0x1p-56) {
			t.Fatalf("generated mean %g outside (0, 2^-56]", mean)
		}
		if limit := math.Exp(-mean); limit < top {
			t.Fatalf("exp(-%g) = %.17g < 1-2^-53", mean, limit)
		}
	}

	// The state whose next Uint64 is MaxUint64, so the next Float64 is
	// 1-2^-53: invert mix and step back one gamma.
	maxState := unmix(math.MaxUint64) - goldenGamma
	if s := FromState(maxState); s.Float64() != top {
		t.Fatalf("state %#x does not draw the largest Float64", maxState)
	}
	states := []uint64{maxState, 0}
	for range 200 {
		states = append(states, gen.Uint64())
	}
	for _, state := range states {
		for _, mean := range means {
			s, want := FromState(state), FromState(state)
			want.Skip(1)
			if k := s.Poisson(mean); k != 0 || s.State() != want.State() {
				t.Fatalf("Poisson(%g) from state %#x = %d at state %#x, want 0 at %#x", mean, state, k, s.State(), want.State())
			}
		}
	}
}

// unmix inverts mix: each xor-shift by s is undone by iterating
// x = y ^ x>>s, and each odd multiplier by its inverse mod 2^64.
func unmix(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for range 64 / s {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(a uint64) uint64 {
		x := a // correct to 3 bits; each Newton step doubles that
		for range 5 {
			x *= 2 - a*x
		}
		return x
	}
	z = unshift(z, 31) * inverse(0x94D049BB133111EB)
	z = unshift(z, 27) * inverse(0xBF58476D1CE4E5B9)
	return unshift(z, 30)
}
