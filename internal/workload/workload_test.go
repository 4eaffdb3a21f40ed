package workload

import (
	"testing"
	"time"

	"uniserver/internal/rng"
)

func TestProfilesCatalogue(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("catalogue size = %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" || seen[p.Name] {
			t.Fatalf("bad or duplicate profile name %q", p.Name)
		}
		seen[p.Name] = true
		if p.CPUActivity <= 0 || p.CPUActivity > 1 {
			t.Errorf("%s: activity %v out of range", p.Name, p.CPUActivity)
		}
		if p.DroopIntensity < 0 || p.DroopIntensity > 1 {
			t.Errorf("%s: droop %v out of range", p.Name, p.DroopIntensity)
		}
		if p.MemTargetBytes == 0 {
			t.Errorf("%s: zero working set", p.Name)
		}
	}
}

func TestLDBCStressesEverything(t *testing.T) {
	p := LDBCSocialNetwork()
	// Paper: "This application stresses the CPU, disk I/O and network."
	if p.CPUActivity < 0.5 {
		t.Error("LDBC should stress CPU")
	}
	if p.DiskIOPS < 1000 {
		t.Error("LDBC should stress disk")
	}
	if p.NetMbps < 100 {
		t.Error("LDBC should stress network")
	}
	if p.MemTargetBytes < 2<<30 {
		t.Error("LDBC working set should be GB-scale")
	}
}

func TestVMSpecValidate(t *testing.T) {
	p := IoTEdgeAnalytics()
	good := VMSpec{Name: "vm0", VCPUs: 2, MemBytes: p.MemTargetBytes * 2, Profile: p}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []VMSpec{
		{VCPUs: 1, MemBytes: 1 << 30, Profile: p},
		{Name: "x", VCPUs: 0, MemBytes: 1 << 30, Profile: p},
		{Name: "x", VCPUs: 1, MemBytes: 0, Profile: p},
		{Name: "x", VCPUs: 1, MemBytes: p.MemTargetBytes - 1, Profile: p},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := Stream(StreamConfig{N: 0, MeanGap: time.Second, MeanLifetime: time.Second}, rng.New(1)); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Stream(StreamConfig{N: 1, MeanGap: 0, MeanLifetime: time.Second}, rng.New(1)); err == nil {
		t.Fatal("zero gap accepted")
	}
	if _, err := Stream(StreamConfig{N: 1, MeanGap: time.Second, MeanLifetime: 0}, rng.New(1)); err == nil {
		t.Fatal("zero lifetime accepted")
	}
}

func TestStreamShape(t *testing.T) {
	cfg := DefaultStreamConfig()
	arrivals, err := Stream(cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != cfg.N {
		t.Fatalf("stream length = %d", len(arrivals))
	}
	prev := time.Duration(-1)
	names := map[string]bool{}
	for _, a := range arrivals {
		if a.At < prev {
			t.Fatal("arrivals not time-ordered")
		}
		prev = a.At
		if a.Lifetime < cfg.MinLifetime {
			t.Fatalf("lifetime %v below minimum", a.Lifetime)
		}
		if err := a.Spec.Validate(); err != nil {
			t.Fatalf("invalid generated spec: %v", err)
		}
		if names[a.Spec.Name] {
			t.Fatalf("duplicate VM name %q", a.Spec.Name)
		}
		names[a.Spec.Name] = true
	}
}

func TestStreamDeterministic(t *testing.T) {
	cfg := DefaultStreamConfig()
	a, err := Stream(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stream(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Lifetime != b[i].Lifetime || a[i].Spec.Name != b[i].Spec.Name {
			t.Fatalf("stream diverged at %d", i)
		}
	}
}

func TestStreamMixesProfiles(t *testing.T) {
	arrivals, err := Stream(DefaultStreamConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	profiles := map[string]bool{}
	for _, a := range arrivals {
		profiles[a.Spec.Profile.Name] = true
	}
	if len(profiles) != len(Profiles()) {
		t.Fatalf("stream uses %d profiles, want %d", len(profiles), len(Profiles()))
	}
}
