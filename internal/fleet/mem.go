package fleet

import (
	"runtime"
	"sync/atomic"
	"time"
)

// HeapWatermark runs fn while sampling the live heap and returns the
// high-water runtime.MemStats HeapAlloc observed (bytes). It is how
// the bounded-memory claim is measured — by the CLI's fleet runs and
// by BenchmarkFleetRuntime's peak_bytes — rather than asserted: peak
// live heap should track workers × ecosystem-size plus the compact
// per-node state, not nodes × ecosystem-size.
//
// Sampling at 5 ms can miss a transient spike between GC cycles, so
// the number is a floor on the true peak; it is plenty to distinguish
// an O(workers) curve from an O(nodes) one, which is the longitudinal
// claim BENCH_fleet.json records.
func HeapWatermark(fn func()) uint64 {
	var peak atomic.Uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			cur := peak.Load()
			if ms.HeapAlloc <= cur || peak.CompareAndSwap(cur, ms.HeapAlloc) {
				return
			}
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	sample()
	fn()
	sample()
	close(stop)
	<-done
	return peak.Load()
}
