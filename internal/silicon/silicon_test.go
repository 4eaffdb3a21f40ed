package silicon

import (
	"testing"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
)

func testChip(seed uint64) *Chip {
	src := rng.New(seed)
	return Fabricate(Process28nm(), "test-part", 4,
		vfr.Point{VoltageMV: 844, FreqMHz: 2600}, 1, src)
}

func TestFabricateDeterministic(t *testing.T) {
	a := testChip(5)
	b := testChip(5)
	if a.D2DOffsetMV != b.D2DOffsetMV {
		t.Fatal("same seed produced different D2D offsets")
	}
	for i := range a.Cores {
		if a.Cores[i].VcritOffsetMV != b.Cores[i].VcritOffsetMV {
			t.Fatalf("core %d offsets differ", i)
		}
	}
}

func TestFabricatePanicsOnZeroCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fabricate(Process28nm(), "x", 0, vfr.Point{VoltageMV: 844, FreqMHz: 2600}, 1, rng.New(1))
}

func TestVcritIncreasesWithFrequency(t *testing.T) {
	c := testChip(7)
	if c.VcritMV(0, 2600) <= c.VcritMV(0, 1300) {
		t.Fatal("Vcrit should increase with frequency")
	}
}

func TestFMaxInvertsVcrit(t *testing.T) {
	c := testChip(11)
	for core := range c.Cores {
		for _, f := range []int{1000, 2000, 2600, 3500} {
			vcrit := c.VcritMV(core, f)
			fmax := c.FMaxMHz(core, int(vcrit)+1)
			if fmax < f-10 {
				t.Fatalf("core %d: fmax(Vcrit(%d)) = %d, want >= %d", core, f, fmax, f-10)
			}
		}
	}
}

func TestFMaxZeroBelowIntercept(t *testing.T) {
	c := testChip(13)
	if got := c.FMaxMHz(0, 100); got != 0 {
		t.Fatalf("FMax at 100mV = %d, want 0", got)
	}
}

func TestWorstBestCore(t *testing.T) {
	c := testChip(17)
	w, b := c.WorstCore(), 0
	for i := range c.Cores {
		if c.Cores[i].VcritOffsetMV > c.Cores[w].VcritOffsetMV {
			t.Fatal("WorstCore is not worst")
		}
		if c.Cores[i].VcritOffsetMV < c.Cores[b].VcritOffsetMV {
			b = i
		}
	}
	if c.VcritMV(w, 2600) < c.VcritMV(b, 2600) {
		t.Fatal("worst core should need at least as much voltage as best")
	}
}

func TestGuardbandedVminExceedsTrueVcrit(t *testing.T) {
	// The conservative rating must cover essentially all fabricated
	// parts: check across a population.
	src := rng.New(23)
	exceed := 0
	const n = 500
	for i := 0; i < n; i++ {
		c := Fabricate(Process28nm(), "p", 4, vfr.Point{VoltageMV: 844, FreqMHz: 2600}, 1, src)
		guard := c.GuardbandedVminMV(2600)
		if guard > c.VcritMV(c.WorstCore(), 2600) {
			exceed++
		}
	}
	if exceed < n*99/100 {
		t.Fatalf("guardbanded Vmin covers only %d/%d parts", exceed, n)
	}
}

func TestGuardbandRecoverableMarginIsSubstantial(t *testing.T) {
	c := testChip(29)
	guard := c.GuardbandedVminMV(2600)
	truth := c.VcritMV(c.WorstCore(), 2600)
	marginPct := 100 * (guard - truth) / guard
	// Paper: >30% margins measured in 28nm ARM parts; our model should
	// recover a double-digit margin for a typical die.
	if marginPct < 10 {
		t.Fatalf("recoverable margin = %.1f%%, want >= 10%%", marginPct)
	}
}

func TestBinLadder(t *testing.T) {
	ladder := BinLadder(3000, 200, 4)
	if len(ladder) != 4 {
		t.Fatalf("ladder len = %d", len(ladder))
	}
	if ladder[0].GradeMHz != 3000 || ladder[3].GradeMHz != 2400 {
		t.Fatalf("ladder grades wrong: %+v", ladder)
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].GradeMHz >= ladder[i-1].GradeMHz {
			t.Fatal("ladder not descending")
		}
	}
}

func TestBinLadderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BinLadder(3000, 0, 4)
}

func TestAssignBinRespectsWorstCore(t *testing.T) {
	c := testChip(41)
	ladder := BinLadder(4000, 100, 30)
	b, ok := AssignBin(c, ladder, 844)
	if !ok {
		t.Fatal("typical part failed to bin")
	}
	worstF := c.FMaxMHz(c.WorstCore(), 844)
	if b.GradeMHz > worstF {
		t.Fatalf("bin %d exceeds worst-core fmax %d", b.GradeMHz, worstF)
	}
}

func TestAssignBinDiscard(t *testing.T) {
	c := testChip(43)
	ladder := BinLadder(9000, 100, 2) // impossible grades
	if _, ok := AssignBin(c, ladder, 844); ok {
		t.Fatal("part should be discarded at impossible grades")
	}
}

func TestBinPopulationSpreadsAcrossBins(t *testing.T) {
	src := rng.New(47)
	nominal := vfr.Point{VoltageMV: 844, FreqMHz: 2600}
	ladder := BinLadder(3600, 100, 12)
	stats := BinPopulation(Process28nm(), 2000, 4, nominal, ladder, src)
	if stats.Total != 2000 {
		t.Fatalf("total = %d", stats.Total)
	}
	if len(stats.PerBin) < 3 {
		t.Fatalf("population fell into only %d bins; Figure 1 needs spread", len(stats.PerBin))
	}
	counted := stats.Discarded
	for _, n := range stats.PerBin {
		counted += n
	}
	if counted != stats.Total {
		t.Fatalf("bin histogram loses parts: %d != %d", counted, stats.Total)
	}
	if y := stats.Yield(); y < 0.9 {
		t.Fatalf("yield = %v, expected high yield at these grades", y)
	}
	if (PopulationStats{}).Yield() != 0 {
		t.Fatal("empty population yield should be 0")
	}
}
