// Package dram simulates the DRAM retention behaviour behind the
// paper's Section 6.B experiment: 8 GB DDR3 DIMMs on a commodity
// server whose main memory is split into per-channel refresh domains
// with independently controllable refresh intervals, so that critical
// kernel code and stack data can live on a reliable (nominal-refresh)
// domain while the rest of memory runs at a relaxed rate.
//
// The physical model follows the experimental DRAM retention studies
// the paper cites (Liu et al., "An experimental study of data
// retention behavior in modern DRAM devices", ISCA 2013): cell
// retention times are log-normally distributed with an extremely thin
// failure tail at second-scale intervals, retention halves roughly
// every 10°C, and a cell only leaks visibly when it stores the
// charge-decay-sensitive value (so random patterns expose about half
// the weak cells).
//
// The calibration reproduces the paper's measurements: relaxing the
// refresh interval from the nominal 64 ms up to 1.5 s introduces no
// errors, and even at 5 s (78x nominal) the cumulative bit error rate
// stays in the order of 1e-9 — within what commercial DRAMs target and
// three orders of magnitude below the 1e-6 rate classical SECDED ECC
// can absorb.
package dram

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"uniserver/internal/rng"
	"uniserver/internal/stats"
	"uniserver/internal/vfr"
)

// RetentionModel parameterizes the log-normal cell retention-time
// distribution at a reference temperature.
type RetentionModel struct {
	// MuLog and SigmaLog are the parameters of ln(retention seconds)
	// at the reference temperature.
	MuLog, SigmaLog float64
	// RefTempC is the temperature the parameters are calibrated at.
	RefTempC float64
	// HalvingC is the temperature increase that halves retention time
	// (~10°C for DRAM).
	HalvingC float64
}

// DefaultRetentionModel returns the model calibrated to the paper's
// measurements in an air-conditioned server room (~45°C DRAM
// temperature): P(retention < 5 s) ≈ 1.3e-9 and
// P(retention < 1.5 s) ≈ 2e-14, so even a multi-pass campaign over
// tens of gigabytes shows zero errors through 1.5 s while the
// cumulative BER at 5 s stays in the order of 1e-9.
func DefaultRetentionModel() RetentionModel {
	return RetentionModel{MuLog: 6.086, SigmaLog: 0.7524, RefTempC: 45, HalvingC: 10}
}

// tempScale returns the retention multiplier at the given temperature:
// hotter cells leak faster.
func (m RetentionModel) tempScale(tempC float64) float64 {
	return math.Pow(2, (m.RefTempC-tempC)/m.HalvingC)
}

// FailProb returns the probability that a single cell's retention time
// (at the given temperature) is below the refresh interval — i.e. the
// per-bit raw failure probability, before pattern exposure.
func (m RetentionModel) FailProb(interval time.Duration, tempC float64) float64 {
	if interval <= 0 {
		return 0
	}
	t := interval.Seconds() / m.tempScale(tempC)
	z := (math.Log(t) - m.MuLog) / m.SigmaLog
	return stats.NormalCDF(z)
}

// tail is a retention model's weak-cell tail below WeakCellHorizon:
// the parameters that map a weak cell's tail uniform u to its
// retention exp(μ + σ·Φ⁻¹(u·pH)), pH being the tail's mass.
type tail struct{ mu, sigma, pH float64 }

// tail returns the model's weak-cell tail. Fabrication draws tens of
// thousands of cells against it, so pH is evaluated once, not per cell.
func (m RetentionModel) tail() tail {
	return tail{m.MuLog, m.SigmaLog, m.FailProb(WeakCellHorizon, m.RefTempC)}
}

// drawU draws a weak cell's tail uniform, redrawing an exact zero, and
// returns its IEEE-754 bits. It is the draw fabrication makes for a
// cell's retention; the retention itself is evaluated only when a
// pattern test's screen admits the cell (tail.retention).
func drawU(src *rng.Source) uint64 {
	u := src.Float64()
	for u == 0 {
		u = src.Float64()
	}
	return math.Float64bits(u)
}

// retention returns the retention, in seconds at the reference
// temperature, of the cell whose tail uniform has bits u. It is
// non-decreasing in u up to rounding while u·pH stays below
// stats.NormalLowTail, as it does for every usable tail.
func (t tail) retention(u uint64) float64 {
	return math.Exp(t.mu + t.sigma*stats.NormalQuantile(math.Float64frombits(u)*t.pH))
}

// The tail uniforms fabrication draws lie in [minU, 1): Float64 yields
// multiples of 2^-53 and drawU redraws zero. minU and oneU are the
// IEEE-754 bits of 2^-53 and 1.
const (
	minU uint64 = 0x3ca0000000000000
	oneU uint64 = 0x3ff0000000000000
)

// usable reports whether the tail can evaluate every u in [minU, 1)
// and is increasing in u, which the pattern test's screen relies on:
// u·pH must neither underflow to zero nor leave NormalQuantile's low
// tail.
func (t tail) usable() bool {
	return !math.IsNaN(t.mu) && !math.IsInf(t.mu, 0) && t.sigma > 0 && !math.IsInf(t.sigma, 0) &&
		t.pH*0x1p-53 > 0 && t.pH <= stats.NormalLowTail
}

// threshold returns the smallest u bits in [minU, oneU] whose
// retention reaches r, bisecting the implemented retention function
// (not NormalCDF: Acklam's quantile is not its exact inverse). oneU
// means no tail uniform reaches r.
func (t tail) threshold(r float64) uint64 {
	lo, hi := minU, oneU
	if t.retention(lo) >= r {
		return lo
	}
	// Invariant: retention(lo) < r, and hi is oneU or reaches r.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if t.retention(mid) < r {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// screenMargin widens the screen's retention bounds relative to the
// watermark. Retention is monotone in u only up to a few ulps of
// rounding (about 1e-15 relative), so a cell at or past a threshold
// has a retention no less than the bound times 1 − 1e-15, which the
// margin keeps above the watermark.
const screenMargin = 1e-9

// screen maps a watermark w onto the tail-uniform column: a stable
// cell whose u bits are at least thr[0], or a VRT cell whose u bits
// are at least thr[1], has a shorter retention of at least w, so a
// pattern test evaluates the retention of the other cells only. The
// thresholds are bisected on first use and shared by every DIMM of a
// pattern test.
type screen struct {
	t   tail
	w   float64
	thr [2]uint64
	set bool
}

// thresholds returns the screen's u thresholds, indexed by class.
func (s *screen) thresholds() [2]uint64 {
	if !s.set {
		s.thr = [2]uint64{
			s.t.threshold(s.w * (1 + screenMargin)),
			s.t.threshold(s.w * VRTRetentionRatio * (1 + screenMargin)),
		}
		s.set = true
	}
	return s.thr
}

// VRT population constants, per the retention studies the paper cites:
// a noticeable minority of weak cells exhibit VRT with a modest
// retention ratio, switching states on second-to-minute timescales.
const (
	// VRTFraction is the fraction of weak cells that are VRT.
	VRTFraction = 0.10
	// VRTRetentionRatio divides the long-state retention to obtain the
	// short-state retention.
	VRTRetentionRatio = 1.5
	// VRTToggleProb is the per-observation-window probability that a
	// VRT cell switches state.
	VRTToggleProb = 0.02
)

// DIMM is one memory module with its explicit weak-cell population.
//
// A cell is the bits of the tail uniform u that fixes its retention;
// the VRT index says which cells are VRT. A retention is evaluated
// only for the cells a pattern test can fail.
// The DIMM keeps a retention watermark and the list of cells whose
// shorter retention is below it (the candidates), each with its
// evaluated retention; a pattern test raises the watermark to its
// interval and walks only the candidates, the way RAIDR (Liu et al.,
// ISCA 2012) bins rows by retention so that refresh attends only to the
// weak ones. Raising the watermark scans the u column against a screen
// (an integer compare per cell) and evaluates only the cells it admits.
// A toggle flips the candidate VRT cells at once and defers everyone
// else's draws to a log, since cell j of a toggle at stream position b
// takes draw b+j+1 (rng.Source.Peek): the log is folded into the
// telegraph bitset when a cell joins the candidates, when an image is
// taken (Flatten) and when it reaches maxToggleLog entries.
type DIMM struct {
	// CapacityBytes is the module size (the paper uses 8 GB modules).
	CapacityBytes uint64
	// DeviceGb is the per-device density in gigabits (refresh power).
	DeviceGb int

	// weak holds the IEEE-754 bits of the tail uniform u
	// (tail.retention) of every cell whose retention falls below the
	// simulation horizon, in cell order; all other cells never fail at
	// the intervals simulated. It is immutable once fabricated: Grow
	// appends and nothing writes a cell in place.
	weak []uint64

	// vrt lists the VRT cells' indices in weak, strictly increasing; it
	// is the only record of which cells are VRT, and a cell's position
	// in it is its VRT ordinal. Immutable like weak. A VRT
	// (variable-retention-time) cell random-telegraph-switches between
	// its retention and that retention divided by VRTRetentionRatio;
	// VRT is why a characterization pass can miss a cell that later
	// fails in the field (Liu et al. [32]), and why the StressLog
	// derates the longest observed error-free interval before
	// publishing it.
	vrt []int

	// low is the telegraph state by VRT ordinal: bit j is set while
	// VRT cell j sits in its short-retention state, up to the deferred
	// toggles in log.
	low []byte

	// A stamped DIMM's weak and vrt alias the image's slabs
	// (cellsShared) until Grow copies them into spare and spareVRT,
	// and its low aliases the image's bitset (lowShared) until its
	// first write copies it into spareLow (own). The spares are the
	// buffers the DIMM owned before the stamp.
	cellsShared, lowShared bool
	spare                  []uint64
	spareVRT               []int
	spareLow               []byte

	// Derived state, reset by every stamp and never serialized. The
	// candidates are exactly the cells whose shorter retention is below
	// watermark, in cell order; no other cell's shorter retention is
	// below floor, and a cell of class k whose u bits are
	// at least unscreened[k] is not a candidate and has a shorter
	// retention of at least floor, so a grown cell is evaluated only
	// below it; candMask marks the candidates by VRT ordinal; log holds
	// the toggles no non-candidate VRT cell has taken yet.
	watermark, floor float64
	unscreened       [2]uint64
	cand             []candidate
	candMask         []byte
	log              []toggle
}

// clamped returns the first n entries of s, capacity-clamped so an
// append copies, or nil when n is 0.
func clamped[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	return s[:n:n]
}

// candidate is one cell of a DIMM's candidate list: its index in weak,
// its VRT ordinal (-1 for a stable cell) and its evaluated retention
// in the long state.
type candidate struct {
	cell, ord int
	ret       float64
}

// shorter returns the retention the candidate has in its shorter state.
func (c candidate) shorter() float64 {
	if c.ord >= 0 {
		return c.ret / VRTRetentionRatio
	}
	return c.ret
}

// toggle is one deferred telegraph toggle: VRT cell j < count flips
// iff draw j+1 from at (at.Peek(j+1)) is below thr.
type toggle struct {
	at    rng.Source
	count int
	thr   uint64
}

// maxToggleLog bounds a DIMM's deferred-toggle log (24 bytes an
// entry). Folding a full log costs what toggling every VRT cell at
// once would have, so the bound caps memory without making any toggle
// dearer than the eager walk. A six-month lifetime's daily
// fast-forward toggles and its monthly re-characterizations fit in
// one log, so its DIMMs never fold before they are discarded.
const maxToggleLog = 1024

// watermarkMargin widens a pattern test's interval/scale before it
// becomes the watermark, so rounding can never leave out a cell the
// exact r*scale < interval comparison would fail.
const watermarkMargin = 1e-12

// bit reports bit j of a bitset.
func bit(set []byte, j int) bool { return set[j>>3]>>(j&7)&1 != 0 }

// own gives a stamped DIMM a private copy of its telegraph bitset
// before its first write, reusing the buffer it owned before it was
// stamped. A no-op on owned DIMMs.
func (d *DIMM) own() {
	if !d.lowShared {
		return
	}
	d.low = append(d.spareLow[:0], d.low...)
	d.spareLow = nil
	d.lowShared = false
}

// flip toggles VRT cell j's telegraph state.
func (d *DIMM) flip(j int) {
	d.own()
	d.low[j>>3] ^= 1 << (j & 7)
}

// retention returns a candidate's retention at the reference
// temperature in its current telegraph state; a candidate's state is
// always current.
func (d *DIMM) retention(c candidate) float64 {
	if c.ord >= 0 && bit(d.low, c.ord) {
		return c.ret / VRTRetentionRatio
	}
	return c.ret
}

// LowState reports whether cell i currently sits in its
// short-retention state, deferred toggles included. Stable cells never
// do. It reads without writing, for tests and tools; the kernels keep
// the state in a bitset.
func (d *DIMM) LowState(i int) bool {
	j, ok := slices.BinarySearch(d.vrt, i)
	if !ok {
		return false
	}
	candidate := j>>3 < len(d.candMask) && bit(d.candMask, j)
	return bit(d.low, j) != (!candidate && d.logFlips(j))
}

// logFlips reports whether the deferred toggles flip VRT cell j an odd
// number of times.
func (d *DIMM) logFlips(j int) bool {
	odd := false
	for i := range d.log {
		if e := &d.log[i]; j < e.count && e.at.Peek(uint64(j)+1)>>11 < e.thr {
			odd = !odd
		}
	}
	return odd
}

// foldInto applies the deferred toggles to a copy of the telegraph
// bitset: every VRT cell outside the candidates takes every toggle
// that covers it.
func (d *DIMM) foldInto(low []byte) {
	for _, e := range d.log {
		for k := range lowBytes(e.count) {
			m := e.flips(k<<3, min(8, e.count-k<<3))
			if k < len(d.candMask) {
				m &^= d.candMask[k]
			}
			low[k] ^= m
		}
	}
}

// flips returns the toggle's flips of VRT cells j..j+n-1 (n <= 8) as
// a mask, built without a branch from independent Peek draws: x < thr
// iff (x−thr)>>63 is 1, both being below 2^63.
func (e *toggle) flips(j, n int) byte {
	at, thr := e.at, e.thr
	var m byte
	for b := range n {
		m |= byte((at.Peek(uint64(j+b)+1)>>11-thr)>>63) << b
	}
	return m
}

// fold applies and empties the deferred-toggle log.
func (d *DIMM) fold() {
	if len(d.log) == 0 {
		return
	}
	d.own()
	d.foldInto(d.low)
	d.log = d.log[:0]
}

// markCand records VRT cell j as a candidate.
func (d *DIMM) markCand(j int) {
	for j>>3 >= len(d.candMask) {
		d.candMask = append(d.candMask, 0)
	}
	d.candMask[j>>3] |= 1 << (j & 7)
}

// raise lifts the watermark to w, admitting every cell whose shorter
// retention is now below it. A VRT cell takes the deferred toggles as
// it joins, so candidates always hold their current state.
// The watermark only rises between stamps, and the cells are scanned
// only when w passes the floor, which a characterization's rising
// sweep does a few times at most. A scan compares each cell's u bits
// with the screen's thresholds and evaluates the retention of the few
// cells below them; everyone else's shorter retention is at least w.
// It walks the stable cells between two VRT cells in one tight loop,
// then screens the VRT cell that ends the segment, so cells are still
// screened and admitted in cell order.
func (d *DIMM) raise(w float64, sc *screen) {
	if !(w > d.watermark) {
		return
	}
	if w <= d.floor {
		d.watermark = w
		return
	}
	prev := d.watermark
	d.watermark, d.floor = w, math.Inf(1)
	d.cand = d.cand[:0]
	thr := sc.thresholds()
	least := [2]uint64{math.MaxUint64, math.MaxUint64}
	thr0, least0 := thr[0], least[0] // the stable class's, as scalars: an array element is never a register
	weak, i := d.weak, 0
	for j := 0; j <= len(d.vrt); j++ {
		end := len(weak) // the cell ending this segment: VRT cell j
		if j < len(d.vrt) {
			end = d.vrt[j]
		}
		for x, u := range weak[i:end] {
			if u >= thr0 {
				least0 = min(least0, u)
			} else {
				d.admit(candidate{cell: i + x, ord: -1, ret: sc.t.retention(u)}, prev)
			}
		}
		if j == len(d.vrt) {
			break
		}
		if u := weak[end]; u >= thr[1] {
			least[1] = min(least[1], u)
		} else {
			d.admit(candidate{cell: end, ord: j, ret: sc.t.retention(u)}, prev)
		}
		i = end + 1
	}
	least[0] = least0
	// An unscreened cell's retention is at least its class minimum's,
	// up to the rounding screenMargin covers, and its shorter retention
	// is at least w.
	d.unscreened = least
	for k, u := range least {
		if u == math.MaxUint64 {
			continue
		}
		r := sc.t.retention(u)
		if k == 1 {
			r /= VRTRetentionRatio
		}
		if r *= 1 - screenMargin; r < d.floor {
			d.floor = r
		}
	}
	d.floor = math.Max(d.floor, w)
}

// admit takes a cell whose retention has been evaluated: a candidate
// if its shorter retention is below the watermark, and otherwise a
// bound on the floor. A VRT cell that was no candidate under the
// watermark prev takes the deferred toggles as it joins.
func (d *DIMM) admit(c candidate, prev float64) {
	r := c.shorter()
	if !(r < d.watermark) {
		if r < d.floor {
			d.floor = r
		}
		return
	}
	d.cand = append(d.cand, c)
	if c.ord >= 0 && !(r < prev) {
		if d.logFlips(c.ord) {
			d.flip(c.ord)
		}
		d.markCand(c.ord)
	}
}

// reset drops the derived state, as after a stamp: no candidates, an
// unscanned floor and an empty log.
func (d *DIMM) reset() {
	d.watermark, d.floor, d.unscreened = 0, 0, [2]uint64{}
	d.cand, d.candMask, d.log = d.cand[:0], d.candMask[:0], d.log[:0]
}

// WeakCellHorizon is the retention horizon below which cells are
// tracked explicitly. Cells above it cannot fail at any interval the
// simulator sweeps: 12 s covers 5 s sweeps with a 10°C temperature
// rise while keeping the explicit weak-cell population compact.
const WeakCellHorizon = 12 * time.Second

// NewDIMM fabricates a DIMM: the weak-cell count is drawn from the
// binomial tail of the retention model and each weak cell gets a tail
// uniform fixing its retention.
func NewDIMM(capacityBytes uint64, deviceGb int, model RetentionModel, src *rng.Source) *DIMM {
	t := model.tail()
	n := src.Binomial(clampInt(capacityBytes*8), t.pH)
	d := &DIMM{CapacityBytes: capacityBytes, DeviceGb: deviceGb, weak: make([]uint64, 0, n), vrt: make([]int, 0, n/8)}
	for i := 0; i < n; i++ {
		d.addCell(t, src)
	}
	return d
}

// addCell draws one weak cell — tail uniform, VRT membership and a VRT
// cell's starting telegraph state — and appends it, admitting it to
// the candidates if its shorter retention is below the watermark. Its
// retention is evaluated only when its u lies below its class's
// unscreened minimum, which is never before the DIMM's first pattern
// test. The stream also holds a bit offset and a polarity per cell,
// which nothing reads (a pattern test draws each candidate's
// leak-sensitive bit afresh), so they are skipped.
func (d *DIMM) addCell(t tail, src *rng.Source) {
	src.Skip(1) // the cell's bit offset
	u := drawU(src)
	src.Skip(1) // its polarity
	c := candidate{cell: len(d.weak), ord: -1}
	k := 0 // the cell's screen class: 1 for a VRT cell
	if src.Bernoulli(VRTFraction) {
		k = 1
		c.ord = len(d.vrt)
		d.vrt = append(d.vrt, c.cell)
		if c.ord&7 == 0 {
			d.own()
			d.low = append(d.low, 0)
		}
		if src.Bool() {
			d.flip(c.ord)
		}
	}
	d.weak = append(d.weak, u)
	if u >= d.unscreened[k] {
		return
	}
	// A new cell was no candidate under any watermark; no deferred
	// toggle covers a new VRT ordinal, so its catch-up flips nothing.
	c.ret = t.retention(u)
	d.admit(c, 0)
}

func clampInt(v uint64) int {
	if v > uint64(math.MaxInt64/2) {
		return math.MaxInt64 / 2
	}
	return int(v)
}

// Bits returns the DIMM capacity in bits.
func (d *DIMM) Bits() uint64 { return d.CapacityBytes * 8 }

// Len returns the number of weak cells.
func (d *DIMM) Len() int { return len(d.weak) }

// Grow appends n freshly-activated weak cells to the DIMM, drawing
// each exactly like fabrication does (addCell) and keeping the VRT
// index and the candidates current. The model must be the one the
// DIMM was fabricated under: it is the one its pattern tests evaluate
// retentions with. Field data says the weak-cell population is not
// static (Qureshi et al., AVATAR, DSN 2015: new weak cells keep
// appearing at a roughly constant rate over a device's life); Grow is
// the mechanism lifetime fast-forwards use to model that.
func (d *DIMM) Grow(n int, model RetentionModel, src *rng.Source) {
	if n <= 0 {
		return
	}
	if d.cellsShared {
		d.weak = append(d.spare[:0], d.weak...)
		d.vrt = append(d.spareVRT[:0], d.vrt...)
		d.spare, d.spareVRT, d.cellsShared = nil, nil, false
	}
	t := model.tail()
	for i := 0; i < n; i++ {
		d.addCell(t, src)
	}
}

// Retain keeps the weak cells keep accepts, in order and in their
// current telegraph states, and drops the others; keep is given each
// cell's index and whether it is a VRT cell. It leaves the DIMM as a
// stamp does, with no candidates, and is how tools and tests cut a
// fabricated population down.
func (d *DIMM) Retain(keep func(i int, vrt bool) bool) {
	var kept []uint64
	var vrt []int
	var low []byte
	next := 0 // the VRT ordinal of the next VRT cell
	for i, u := range d.weak {
		isVRT := next < len(d.vrt) && d.vrt[next] == i
		if isVRT {
			next++
		}
		if !keep(i, isVRT) {
			continue
		}
		if isVRT {
			j := len(vrt)
			if j&7 == 0 {
				low = append(low, 0)
			}
			if d.LowState(i) {
				low[j>>3] |= 1 << (j & 7)
			}
			vrt = append(vrt, len(kept))
		}
		kept = append(kept, u)
	}
	if len(kept) < len(d.weak) {
		d.weak, d.cellsShared = kept, false
	}
	d.vrt, d.low, d.lowShared = vrt, low, false
	d.reset()
}

// SameCells reports whether two DIMMs read one weak-cell storage, as
// DIMMs stamped from one image do until either grows.
func (d *DIMM) SameCells(o *DIMM) bool {
	return len(d.weak) > 0 && len(o.weak) > 0 && &d.weak[0] == &o.weak[0]
}

// GrowWeakCells advances the domain's weak-cell population by `days`
// of field aging at the given activation rate (expected newly-weak
// cells per DIMM per day). The count per DIMM is a binomial draw over
// the module's bits — the same distribution fabrication uses — so a
// zero rate draws nothing and leaves the source stream untouched.
func GrowWeakCells(dom *Domain, days int, cellsPerDIMMPerDay float64, model RetentionModel, src *rng.Source) {
	if days <= 0 || cellsPerDIMMPerDay <= 0 {
		return
	}
	for _, dimm := range dom.DIMMs {
		bits := dimm.Bits()
		if bits == 0 {
			continue
		}
		p := cellsPerDIMMPerDay * float64(days) / float64(bits)
		if p > 1 {
			p = 1
		}
		n := src.Binomial(clampInt(bits), p)
		dimm.Grow(n, model, src)
	}
}

// Domain is a refresh domain: a set of DIMMs (one memory channel in
// the paper's setup) sharing one refresh interval.
type Domain struct {
	Name     string
	DIMMs    []*DIMM
	Refresh  time.Duration
	Reliable bool // pinned to nominal refresh for critical data
}

// Bits returns the domain capacity in bits.
func (dom *Domain) Bits() uint64 {
	var total uint64
	for _, d := range dom.DIMMs {
		total += d.Bits()
	}
	return total
}

// SetRefresh changes the domain's refresh interval. Reliable domains
// refuse to relax beyond the nominal interval.
func (dom *Domain) SetRefresh(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("dram: non-positive refresh interval %v", interval)
	}
	if dom.Reliable && interval > vfr.NominalRefresh {
		return fmt.Errorf("dram: domain %q is reliable; refusing refresh %v > nominal %v",
			dom.Name, interval, vfr.NominalRefresh)
	}
	dom.Refresh = interval
	return nil
}

// MemorySystem is the server's main memory: a set of refresh domains
// (channels) as instrumented in the paper's framework.
type MemorySystem struct {
	Model   RetentionModel
	Domains []*Domain
	// TempC is the current DRAM temperature.
	TempC float64
}

// Config describes the memory system to build.
type Config struct {
	Channels        int
	DIMMsPerChannel int
	DIMMBytes       uint64
	DeviceGb        int
	TempC           float64
}

// DefaultConfig mirrors the paper's testbed: a commodity server with
// multiple channels of 8 GB DDR3 DIMMs in an air-conditioned room.
func DefaultConfig() Config {
	return Config{
		Channels:        4,
		DIMMsPerChannel: 2,
		DIMMBytes:       8 << 30,
		DeviceGb:        2,
		TempC:           45,
	}
}

// New builds a memory system; channel 0 is marked reliable (nominal
// refresh) to host critical kernel code and stack data, mirroring the
// paper's isolation of the kernel on a nominal-refresh domain.
func New(cfg Config, model RetentionModel, src *rng.Source) (*MemorySystem, error) {
	if cfg.Channels <= 0 || cfg.DIMMsPerChannel <= 0 || cfg.DIMMBytes == 0 {
		return nil, errors.New("dram: invalid config")
	}
	ms := &MemorySystem{Model: model, TempC: cfg.TempC}
	for ch := 0; ch < cfg.Channels; ch++ {
		dom := &Domain{
			Name:     fmt.Sprintf("channel%d", ch),
			Refresh:  vfr.NominalRefresh,
			Reliable: ch == 0,
		}
		for i := 0; i < cfg.DIMMsPerChannel; i++ {
			dom.DIMMs = append(dom.DIMMs, NewDIMM(cfg.DIMMBytes, cfg.DeviceGb, model, src.Split()))
		}
		ms.Domains = append(ms.Domains, dom)
	}
	return ms, nil
}

// ReliableDomain returns the reliable domain.
func (ms *MemorySystem) ReliableDomain() *Domain {
	for _, d := range ms.Domains {
		if d.Reliable {
			return d
		}
	}
	return nil
}

// RelaxedDomains returns every non-reliable domain.
func (ms *MemorySystem) RelaxedDomains() []*Domain {
	var out []*Domain
	for _, d := range ms.Domains {
		if !d.Reliable {
			out = append(out, d)
		}
	}
	return out
}

// PatternTestResult reports one pattern-test pass over a domain.
type PatternTestResult struct {
	Domain    string
	Refresh   time.Duration
	BitsRead  uint64
	BitErrors int
	BER       float64
}

// toggleVRT advances the random-telegraph state of every VRT cell in
// the domain by one observation window.
func toggleVRT(dom *Domain, src *rng.Source) {
	toggleVRTWith(dom, VRTToggleProb, src)
}

// toggleVRTWith is the telegraph walker behind the fine (per-window)
// and coarse (fast-forward) toggles: VRT cell j of a DIMM flips iff
// Bernoulli(p) succeeds on its draw, the (j+1)th from where the DIMM's
// toggle starts. Candidate cells read their draw through Peek and flip
// at once; the rest are logged for a later fold, and the stream skips
// the whole DIMM's draws, so the stream and every cell's state are
// those of one Bernoulli draw per VRT cell in cell order. p <= 0 and
// p >= 1 draw nothing, as Bernoulli does; a NaN p draws and never
// flips.
func toggleVRTWith(dom *Domain, p float64, src *rng.Source) {
	thr := rng.Threshold(p)
	drawn := !(p <= 0 || p >= 1)
	for _, d := range dom.DIMMs {
		n := len(d.vrt)
		if thr > 0 && n > 0 {
			for _, c := range d.cand {
				if c.ord >= 0 && src.Peek(uint64(c.ord)+1)>>11 < thr {
					d.flip(c.ord)
				}
			}
			d.log = append(d.log, toggle{at: *src, count: n, thr: thr})
			if len(d.log) == maxToggleLog {
				d.fold()
			}
		}
		if drawn {
			src.Skip(uint64(n))
		}
	}
}

// CoarseToggleProb returns the probability that a VRT cell sits in the
// opposite telegraph state after `windows` back-to-back observation
// windows: the closed form of `windows` independent Bernoulli(p)
// toggles, 0.5·(1−(1−2p)^n). It is what lets a lifetime fast-forward
// advance months of random-telegraph switching in one draw per cell
// instead of stepping half a million windows.
func CoarseToggleProb(windows int) float64 {
	if windows <= 0 {
		return 0
	}
	return 0.5 * (1 - math.Pow(1-2*VRTToggleProb, float64(windows)))
}

// ToggleVRTCoarse advances every VRT cell in the domain by `windows`
// observation windows' worth of telegraph switching in a single
// Bernoulli draw per cell (probability CoarseToggleProb(windows)).
// It walks the cells exactly like the fine per-window toggle — same
// walker, different probability — so the draw sequence is a pure
// function of the source stream and the fabricated population.
func ToggleVRTCoarse(dom *Domain, windows int, src *rng.Source) {
	toggleVRTWith(dom, CoarseToggleProb(windows), src)
}

// Reindex rebuilds every DIMM's derived state from its weak cells and
// VRT index: the telegraph bitset, in which every VRT cell keeps its
// current state with the deferred toggles applied, and an empty
// candidate set.
func (ms *MemorySystem) Reindex() {
	for _, dom := range ms.Domains {
		for _, d := range dom.DIMMs {
			d.Retain(func(int, bool) bool { return true })
		}
	}
}

// RunPatternTest writes a random test pattern over the whole domain,
// waits one full refresh interval, reads it back and counts bit
// errors, replicating the paper's methodology ("using random test
// patterns and various refresh rates"). A weak cell corrupts data only
// if its retention (at temperature) is below the refresh interval and
// the random pattern stored the leak-sensitive polarity (probability
// 1/2 per cell).
//
// Only candidates can fail: the watermark admits every cell whose
// shorter retention is below interval/scale, widened by
// watermarkMargin, and each candidate still takes the exact
// comparison in cell order, so the pattern draws are those of a scan
// over every weak cell. The memory system's model evaluates the
// candidates' retentions: it must be the model the DIMMs were
// fabricated under.
func (ms *MemorySystem) RunPatternTest(dom *Domain, src *rng.Source) PatternTestResult {
	res := PatternTestResult{Domain: dom.Name, Refresh: dom.Refresh, BitsRead: dom.Bits()}
	toggleVRT(dom, src)
	interval := dom.Refresh.Seconds()
	scale := ms.Model.tempScale(ms.TempC)
	w := interval / scale * (1 + watermarkMargin)
	sc := screen{t: ms.Model.tail(), w: w}
	for _, d := range dom.DIMMs {
		d.raise(w, &sc)
		for _, c := range d.cand {
			if d.retention(c)*scale < interval && src.Bool() {
				res.BitErrors++
			}
		}
	}
	if res.BitsRead > 0 {
		res.BER = float64(res.BitErrors) / float64(res.BitsRead)
	}
	return res
}

// SweepPoint is one row of the refresh-rate characterization sweep.
type SweepPoint struct {
	Refresh       time.Duration
	BitErrors     int
	CumulativeBER float64
	SECDEDSafe    bool // below the 1e-6 rate classical SECDED handles
}

// CharacterizeRefresh sweeps the given refresh intervals on every
// relaxed domain and reports cumulative errors and BER per interval —
// the Section 6.B experiment. Passes-per-interval emulates repeated
// testing (the paper reports cumulative BER over its campaign).
func (ms *MemorySystem) CharacterizeRefresh(intervals []time.Duration, passes int, src *rng.Source) ([]SweepPoint, error) {
	if passes <= 0 {
		return nil, errors.New("dram: passes must be positive")
	}
	points := make([]SweepPoint, 0, len(intervals))
	for _, interval := range intervals {
		totalErrors := 0
		var totalBits uint64
		for _, dom := range ms.RelaxedDomains() {
			if err := dom.SetRefresh(interval); err != nil {
				return nil, err
			}
			for p := 0; p < passes; p++ {
				r := ms.RunPatternTest(dom, src)
				totalErrors += r.BitErrors
				totalBits += r.BitsRead
			}
		}
		ber := 0.0
		if totalBits > 0 {
			ber = float64(totalErrors) / float64(totalBits)
		}
		points = append(points, SweepPoint{
			Refresh:       interval,
			BitErrors:     totalErrors,
			CumulativeBER: ber,
			SECDEDSafe:    ber <= 1e-6,
		})
	}
	// Restore nominal refresh after characterization.
	for _, dom := range ms.RelaxedDomains() {
		if err := dom.SetRefresh(vfr.NominalRefresh); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// MaxSafeRefresh returns the longest swept interval with zero observed
// errors — the margin the StressLog would publish for the DRAM domain
// (before applying its cushion).
func MaxSafeRefresh(points []SweepPoint) (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, p := range points {
		if p.BitErrors == 0 && p.Refresh > best {
			best = p.Refresh
			found = true
		}
	}
	return best, found
}
