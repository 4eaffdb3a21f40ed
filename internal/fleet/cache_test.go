package fleet

import (
	"bytes"
	"testing"

	"uniserver/internal/core"
	"uniserver/internal/cpu"
	"uniserver/internal/workload"
)

// TestCharactCacheByteIdentical pins the cache's safety contract at
// the fleet level: a run through the snapshot cache must produce the
// same fingerprint AND the same health-log bytes as the direct path —
// the characterization-era log lines are replayed from the cache's
// capture, and the deployment-era lines flow from the restored
// ecosystems.
func TestCharactCacheByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	run := func(cache *CharactCache) (Summary, *bytes.Buffer) {
		var log bytes.Buffer
		cfg := smallConfig(3, 2)
		cfg.HealthLogOut = &log
		cfg.Charact = cache
		sum, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sum, &log
	}
	direct, directLog := run(nil)
	cached, cachedLog := run(NewCharactCache())
	if cached.Fingerprint() != direct.Fingerprint() {
		t.Fatalf("cached run diverged from direct run:\n--- direct ---\n%s--- cached ---\n%s",
			direct.Fingerprint(), cached.Fingerprint())
	}
	if !bytes.Equal(cachedLog.Bytes(), directLog.Bytes()) {
		t.Fatalf("cached run's health log diverged from the direct run's (%d vs %d bytes)",
			cachedLog.Len(), directLog.Len())
	}
}

// TestCharactCacheReuse verifies the cache actually reuses work: a
// second run with the same config hits for every node, and the
// summaries stay byte-identical — the restored-at-hit ecosystems carry
// the exact state the characterizing run published.
func TestCharactCacheReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	cache := NewCharactCache()
	cfg := smallConfig(3, 1)
	cfg.Charact = cache
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("first run: want 3 misses / 0 hits (all node seeds distinct), got %d / %d",
			st.Misses, st.Hits)
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 3 || st.Hits != 3 {
		t.Fatalf("second run: want 3 misses / 3 hits, got %d / %d", st.Misses, st.Hits)
	}
	if second.Fingerprint() != first.Fingerprint() {
		t.Fatalf("warm-cache run diverged from the cold run:\n--- cold ---\n%s--- warm ---\n%s",
			first.Fingerprint(), second.Fingerprint())
	}
}

// TestCharactKeyCanonicalization pins what does and does not split the
// cache: deployment-only fields (mode, risk, workload, memory export,
// ambient) share a key; characterization inputs (seed, part, DRAM
// shape, log capture) split it; and an explicitly-defaulted part
// collides with an implicit zero part.
func TestCharactKeyCanonicalization(t *testing.T) {
	base := DefaultConfig(2).BaseSpec()
	keys := newBinMemo(1, false)
	key := keys.nodeKey(42, base)

	deployment := base
	deployment.Mode = 2
	deployment.RiskTarget = 0.5
	deployment.MemBytes = 1 << 30
	deployment.AmbientCPUC, deployment.AmbientDIMMC = 40, 46
	if got := keys.nodeKey(42, deployment); got != key {
		t.Fatalf("deployment-only fields split the key:\n%s\nvs\n%s", key, got)
	}

	explicit := base
	explicit.Part = core.DefaultOptions().Part
	if got := keys.nodeKey(42, explicit); got != key {
		t.Fatalf("explicit default part split the key:\n%s\nvs\n%s", key, got)
	}

	if got := keys.nodeKey(43, base); got == key {
		t.Fatal("seed did not split the key")
	}
	mem := base
	mem.Mem.Channels++
	if got := keys.nodeKey(42, mem); got == key {
		t.Fatal("DRAM config did not split the key")
	}
	if got := newBinMemo(1, true).nodeKey(42, base); got == key {
		t.Fatal("log capture did not split the key")
	}
}

// TestArchetypeBinFieldAudit is the field-by-field audit of archetype
// binning: every NodeSpec field is listed with whether it splits the
// bin. Characterization inputs — the silicon part and every DRAM
// configuration field, initial DIMM temperature included (the
// retention pattern tests read it) — split; deployment-phase fields —
// operating point, workload, schedulable memory, ambient — do not,
// because they only shape what happens after Restore. A field missing
// from this table is a review prompt: decide which side it binning
// falls on and add it.
func TestArchetypeBinFieldAudit(t *testing.T) {
	t.Parallel()
	base := DefaultConfig(2).BaseSpec()
	baseBin := ArchetypeBin(base)
	cases := []struct {
		field  string
		mutate func(*NodeSpec)
		splits bool
	}{
		{"Mode", func(s *NodeSpec) { s.Mode = 2 }, false},
		{"RiskTarget", func(s *NodeSpec) { s.RiskTarget = 0.5 }, false},
		{"Workload", func(s *NodeSpec) { s.Workload = workload.BatchAnalytics() }, false},
		{"MemBytes", func(s *NodeSpec) { s.MemBytes = 1 << 30 }, false},
		{"AmbientCPUC", func(s *NodeSpec) { s.AmbientCPUC = 40 }, false},
		{"AmbientDIMMC", func(s *NodeSpec) { s.AmbientDIMMC = 46 }, false},
		{"Part (explicit default)", func(s *NodeSpec) { s.Part = core.DefaultOptions().Part }, false},
		{"Part (different bin)", func(s *NodeSpec) { s.Part = cpu.PartI7_3970X() }, true},
		{"Mem.Channels", func(s *NodeSpec) { s.Mem.Channels++ }, true},
		{"Mem.DIMMsPerChannel", func(s *NodeSpec) { s.Mem.DIMMsPerChannel++ }, true},
		{"Mem.DIMMBytes", func(s *NodeSpec) { s.Mem.DIMMBytes *= 2 }, true},
		{"Mem.DeviceGb", func(s *NodeSpec) { s.Mem.DeviceGb *= 2 }, true},
		{"Mem.TempC", func(s *NodeSpec) { s.Mem.TempC += 10 }, true},
	}
	for _, tc := range cases {
		spec := base
		tc.mutate(&spec)
		got := ArchetypeBin(spec)
		if tc.splits && got == baseBin {
			t.Errorf("%s: characterization-relevant field did not split the bin", tc.field)
		}
		if !tc.splits && got != baseBin {
			t.Errorf("%s: deployment-phase field split the bin:\n%s\nvs\n%s", tc.field, baseBin, got)
		}
	}
}
