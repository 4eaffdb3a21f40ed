package dram

import (
	"testing"
	"testing/quick"
	"time"

	"uniserver/internal/rng"
)

// TestFailProbMonotoneProperty: longer refresh intervals and higher
// temperatures never reduce the failure probability.
func TestFailProbMonotoneProperty(t *testing.T) {
	m := DefaultRetentionModel()
	err := quick.Check(func(rawIv uint32, rawDelta uint16, rawTemp uint8) bool {
		iv := time.Duration(rawIv%10_000_000)*time.Microsecond + time.Millisecond
		delta := time.Duration(rawDelta) * time.Millisecond
		temp := 30 + float64(rawTemp%60)
		if m.FailProb(iv+delta, temp) < m.FailProb(iv, temp) {
			return false
		}
		return m.FailProb(iv, temp+5) >= m.FailProb(iv, temp)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestWeakRetentionTailProperty: weak retentions drawn as fabrication
// draws them are always in (0, horizon) and deterministic per seed.
func TestWeakRetentionTailProperty(t *testing.T) {
	tl := DefaultRetentionModel().tail()
	err := quick.Check(func(seed uint64) bool {
		a := tl.retention(drawU(rng.New(seed)))
		b := tl.retention(drawU(rng.New(seed)))
		return a == b && a > 0 && a < WeakCellHorizon.Seconds()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllocatorConservationProperty: across an arbitrary sequence of
// allocations and frees, per-domain used bytes equal the sum of live
// allocations and never exceed capacity.
func TestAllocatorConservationProperty(t *testing.T) {
	cfg := Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 64 << 20, DeviceGb: 2, TempC: 45}
	err := quick.Check(func(ops []uint16, seed uint64) bool {
		ms, err := New(cfg, DefaultRetentionModel(), rng.New(seed))
		if err != nil {
			return false
		}
		al := NewAllocator(ms)
		owners := []string{"a", "b", "c", "kernel"}
		for _, op := range ops {
			owner := owners[int(op)%len(owners)]
			if op%3 == 0 {
				al.Free(owner)
				continue
			}
			crit := CriticalityNormal
			if owner == "kernel" {
				crit = CriticalityKernel
			}
			pages := uint64(op%512) + 1
			_, _ = al.Alloc(owner, crit, pages) // exhaustion is fine
		}
		// Conservation: recompute from live allocations.
		byDomain := map[*Domain]uint64{}
		for _, a := range al.allocations {
			byDomain[a.Domain] += a.Bytes()
		}
		for _, dom := range ms.Domains {
			if al.used[dom] != byDomain[dom] {
				return false
			}
			if al.used[dom] > dom.Bits()/8 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}
