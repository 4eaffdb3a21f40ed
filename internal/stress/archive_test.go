package stress

import (
	"testing"

	"uniserver/internal/cpu"
	"uniserver/internal/rng"
)

func sampleEntry(name, machine string, fitness float64) ArchiveEntry {
	return ArchiveEntry{
		Name:      name,
		Objective: MaxVoltageNoise,
		Genome:    Genome{VecFrac: 0.5, NopFrac: 0.5, BurstPeriod: 16},
		Fitness:   fitness,
		Machine:   machine,
	}
}

func TestArchivePutValidation(t *testing.T) {
	a := NewArchive()
	if err := a.Put(ArchiveEntry{}); err == nil {
		t.Fatal("unnamed entry accepted")
	}
	if err := a.Put(sampleEntry("v1", "m", 1)); err != nil {
		t.Fatal(err)
	}
	if len(a.entries) != 1 {
		t.Fatalf("len = %d", len(a.entries))
	}
	// Replacement, not duplication.
	if err := a.Put(sampleEntry("v1", "m", 2)); err != nil {
		t.Fatal(err)
	}
	if len(a.entries) != 1 {
		t.Fatal("replacement duplicated")
	}
}

func TestArchiveBest(t *testing.T) {
	a := NewArchive()
	for _, e := range []ArchiveEntry{
		sampleEntry("v1", "i5-4200U", 750),
		sampleEntry("v2", "i5-4200U", 760),
		sampleEntry("v3", "i7-3970X", 999),
	} {
		if err := a.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	best, ok := a.Best("i5-4200U", MaxVoltageNoise)
	if !ok || best.Name != "v2" {
		t.Fatalf("Best = %+v, %v", best, ok)
	}
	if _, ok := a.Best("i5-4200U", MaxPower); ok {
		t.Fatal("wrong objective matched")
	}
	if _, ok := a.Best("unknown", MaxVoltageNoise); ok {
		t.Fatal("unknown machine matched")
	}
}

func TestObtainVirusEvolvesOnceThenReuses(t *testing.T) {
	a := NewArchive()
	m := cpu.NewMachine(cpu.PartI5_4200U(), 5)
	cfg := GAConfig{PopSize: 8, Generations: 3, TournamentK: 2, MutSigma: 0.1, Elite: 1}

	v1, err := ObtainVirus(a, cfg, MaxVoltageNoise, m, 0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.entries) != 1 {
		t.Fatal("evolved virus not archived")
	}
	// Second call hits the archive: identical virus, no new entries,
	// regardless of the RNG handed in.
	v2, err := ObtainVirus(a, cfg, MaxVoltageNoise, m, 0, rng.New(999))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.entries) != 1 {
		t.Fatal("archive grew on reuse")
	}
	if v1.DroopIntensity != v2.DroopIntensity || v1.CacheStress != v2.CacheStress {
		t.Fatal("archived virus differs from evolved one")
	}
	// A different objective evolves a second entry.
	if _, err := ObtainVirus(a, cfg, MaxPower, m, 0, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	if len(a.entries) != 2 {
		t.Fatalf("len = %d", len(a.entries))
	}
	if _, err := ObtainVirus(nil, cfg, MaxPower, m, 0, rng.New(3)); err == nil {
		t.Fatal("nil archive accepted")
	}
}
