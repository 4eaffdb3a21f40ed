package silicon

import (
	"testing"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
)

func BenchmarkFabricate(b *testing.B) {
	src := rng.New(1)
	nominal := vfr.Point{VoltageMV: 844, FreqMHz: 2600}
	for i := 0; i < b.N; i++ {
		_ = Fabricate(Process28nm(), "part", 8, nominal, 1, src)
	}
}

func BenchmarkBinPopulation(b *testing.B) {
	nominal := vfr.Point{VoltageMV: 844, FreqMHz: 2600}
	ladder := BinLadder(3600, 100, 12)
	for i := 0; i < b.N; i++ {
		_ = BinPopulation(Process28nm(), 500, 4, nominal, ladder, rng.New(uint64(i)))
	}
}
