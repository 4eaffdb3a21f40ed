package dram

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"uniserver/internal/rng"
)

// TestRetentionMonotone is the density check behind the screen: the
// implemented retention(u) must not fall as u rises, beyond a relative
// rounding wobble far below screenMargin. It walks the tail's u range
// on a dense grid of the bit patterns and runs of consecutive ulps
// around random points.
func TestRetentionMonotone(t *testing.T) {
	if minU != math.Float64bits(0x1p-53) || oneU != math.Float64bits(1) {
		t.Fatalf("minU %#x and oneU %#x are not the bits of 2^-53 and 1", minU, oneU)
	}
	tl := DefaultRetentionModel().tail()
	worst := 0.0
	check := func(a, b uint64) {
		ra, rb := tl.retention(a), tl.retention(b)
		if drop := (ra - rb) / ra; drop > worst {
			worst = drop
		}
	}
	const grid = 1 << 20
	step := (oneU - minU) / grid
	for u := minU; u+step < oneU; u += step {
		check(u, u+step)
	}
	src := rng.New(1)
	for range 1000 {
		u := minU + src.Uint64()%(oneU-minU-1000)
		for k := range uint64(1000) {
			check(u+k, u+k+1)
		}
	}
	if worst > 1e-13 {
		t.Fatalf("retention falls by %g relative as u rises; the screen margin %g assumes rounding only", worst, screenMargin)
	}
	t.Logf("largest relative fall of retention(u) between neighbours: %g", worst)
}

// boundaryDIMM plants stable and VRT cells at each u given, the VRT
// cells in their long states.
func boundaryDIMM(us []uint64) *DIMM {
	d := &DIMM{CapacityBytes: 1 << 30}
	for _, u := range us {
		for _, fl := range []byte{flagTrueCell, flagVRT} {
			if fl&flagVRT != 0 {
				if len(d.vrt)&7 == 0 {
					d.low = append(d.low, 0)
				}
				d.vrt = append(d.vrt, d.Len())
			}
			d.weak.add(uint64(d.Len()), u, fl)
		}
	}
	return d
}

// refOf copies a memory system's state into the reference kernels.
func refOf(ms *MemorySystem) *refSystem {
	r := &refSystem{model: ms.Model, tempC: ms.TempC}
	for _, dom := range ms.Domains {
		var refDom []*refDIMM
		for _, d := range dom.DIMMs {
			rd := &refDIMM{bits: d.Bits(), vrt: append([]int(nil), d.vrt...)}
			for i := range d.Len() {
				rd.weak = append(rd.weak, materialize(d, i, ms.Model))
				rd.low = append(rd.low, d.LowState(i))
			}
			refDom = append(refDom, rd)
		}
		r.domains = append(r.domains, refDom)
	}
	return r
}

// TestScreenBoundary puts stable and VRT cells exactly on both screen
// thresholds and one ulp either side, for every interval the
// characterization sweeps and for watermarks past WeakCellHorizon, at
// 35–80 °C, and checks the pattern test against the reference: the
// candidates are exactly the cells whose shorter retention is below
// the watermark, the bit errors and the state match, and every cell
// the scan left unscreened is bounded by the floor.
func TestScreenBoundary(t *testing.T) {
	model := DefaultRetentionModel()
	intervals := []time.Duration{
		64 * time.Millisecond, 128 * time.Millisecond, 256 * time.Millisecond,
		512 * time.Millisecond, time.Second, 1500 * time.Millisecond,
		2 * time.Second, 3 * time.Second, 4 * time.Second, 5 * time.Second,
		// Watermarks above the weak-cell horizon: every cell screens in.
		15 * time.Second, 40 * time.Second,
	}
	seed, admitted, refused := uint64(0), 0, 0
	for temp := 35.0; temp <= 80; temp += 5 {
		for _, iv := range intervals {
			seed++
			scale := model.tempScale(temp)
			w := iv.Seconds() / scale * (1 + watermarkMargin)
			sc := screen{t: model.tail(), w: w}
			var us []uint64
			for _, thr := range sc.thresholds() {
				for _, u := range []uint64{thr - 1, thr, thr + 1} {
					if u >= minU && u < oneU {
						us = append(us, u)
					}
				}
			}
			name := fmt.Sprintf("%v at %g°C", iv, temp)
			d := boundaryDIMM(us)
			dom := &Domain{Name: "boundary", DIMMs: []*DIMM{d}, Refresh: iv}
			ms := &MemorySystem{Model: model, Domains: []*Domain{dom}, TempC: temp}
			ref := refOf(ms)
			src, refSrc := rng.New(seed), rng.New(seed)
			got, want := ms.RunPatternTest(dom, src).BitErrors, ref.patternTest(0, iv, refSrc)
			if got != want || src.State() != refSrc.State() {
				t.Fatalf("%s: %d bit errors, reference %d", name, got, want)
			}
			if d.watermark != w {
				t.Fatalf("%s: watermark %v, want %v", name, d.watermark, w)
			}
			if err := sameState(ms, ref); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			admitted += len(d.cand)
			refused += d.Len() - len(d.cand)
			for i := range d.Len() {
				c := materialize(d, i, model)
				short := c.ret
				if c.vrt {
					short = c.alt
				}
				if d.weak.u[i] >= d.unscreened[class(d.weak.flags[i])] && (short < w || short < d.floor) {
					t.Fatalf("%s: unscreened cell %d has shorter retention %v (watermark %v, floor %v)", name, i, short, w, d.floor)
				}
			}
		}
	}
}

// fuzzImage builds a FlatMemory head from the front of data — its
// first byte picks up to three DIMMs in one domain, the next two bytes
// per DIMM its cell and VRT counts — and returns it with the bytes
// after the head.
func fuzzImage(data []byte) (*FlatMemory, []byte) {
	f := &FlatMemory{Model: DefaultRetentionModel(), TempC: 45}
	if len(data) == 0 {
		return f, nil
	}
	n := min(int(data[0]%4), (len(data)-1)/2)
	f.Domains = []FlatDomain{{Name: "fuzz", DIMMs: n}}
	for i := range n {
		f.DIMMs = append(f.DIMMs, FlatDIMM{CapacityBytes: 16 << 20, DeviceGb: 2, Cells: int(data[1+2*i]), VRT: int(data[2+2*i])})
	}
	return f, data[1+2*n:]
}

// fuzzSeed returns a fuzz input for an image: its head bytes and its
// columns.
func fuzzSeed(f *FlatMemory) []byte {
	b := []byte{byte(len(f.DIMMs))}
	for _, d := range f.DIMMs {
		b = append(b, byte(d.Cells), byte(d.VRT))
	}
	return f.AppendColumns(b)
}

// FuzzDecodeColumns feeds DecodeColumns arbitrary columns behind a head
// the input picks (fuzzImage). It must never panic; whatever it accepts
// must re-encode to exactly the bytes it read, and an accepted image
// that validates must stamp and run pattern tests at every swept
// interval.
func FuzzDecodeColumns(f *testing.F) {
	ms, err := New(Config{Channels: 1, DIMMsPerChannel: 2, DIMMBytes: 16 << 20, DeviceGb: 2, TempC: 45}, DefaultRetentionModel(), rng.New(3))
	if err != nil {
		f.Fatal(err)
	}
	img := ms.Flatten()
	valid := fuzzSeed(img)
	if g, cols := fuzzImage(valid); func() error { _, err := g.DecodeColumns(cols); return err }() != nil || g.Validate() != nil {
		f.Fatal("the valid seed does not decode and validate")
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// The same image with its first tail uniform zeroed.
	zero := bytes.Clone(valid)
	clear(zero[1+2*len(img.DIMMs)+8+8*img.cellCount()+8:][:8])
	f.Add(zero)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, cols := fuzzImage(data)
		rest, err := g.DecodeColumns(cols)
		if err != nil {
			return
		}
		if again := g.AppendColumns(nil); !bytes.Equal(again, cols[:len(cols)-len(rest)]) {
			t.Fatalf("accepted columns re-encode to %d different bytes (read %d)", len(again), len(cols)-len(rest))
		}
		if g.Validate() != nil {
			return
		}
		stamped := &MemorySystem{}
		g.StampInto(stamped)
		src := rng.New(1)
		for _, iv := range []time.Duration{64 * time.Millisecond, 2 * time.Second, 5 * time.Second, 40 * time.Second} {
			for _, dom := range stamped.Domains {
				dom.Refresh = iv
				stamped.RunPatternTest(dom, src)
			}
		}
	})
}
