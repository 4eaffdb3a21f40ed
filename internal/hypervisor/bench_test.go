package hypervisor

import (
	"fmt"
	"testing"

	"uniserver/internal/dram"
	"uniserver/internal/rng"
)

func benchHypervisor(b *testing.B) *Hypervisor {
	b.Helper()
	om := NewObjectMap(DefaultProfiles(), rng.New(1))
	cfg := dram.Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45}
	mem, err := dram.New(cfg, dram.DefaultRetentionModel(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	h, err := New(DefaultConfig(), om, mem)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func BenchmarkStartStopVM(b *testing.B) {
	h := benchHypervisor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("vm-%d", i)
		if err := h.StartVM(vmSpec(name, 2)); err != nil {
			b.Fatal(err)
		}
		if err := h.StopVM(name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaskCorrectable(b *testing.B) {
	h := benchHypervisor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MaskCorrectable(i%8, 1)
	}
}

func BenchmarkObjectMapConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = NewObjectMap(DefaultProfiles(), rng.New(uint64(i)))
	}
}
