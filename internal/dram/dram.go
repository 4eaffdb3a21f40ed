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

// SampleWeakRetention samples a retention time (seconds, at reference
// temperature) conditioned on it being below the given horizon, using
// inverse-CDF sampling of the truncated tail.
func (m RetentionModel) SampleWeakRetention(horizon time.Duration, src *rng.Source) float64 {
	return m.sampleWeakTail(m.FailProb(horizon, m.RefTempC), src)
}

// sampleWeakTail is SampleWeakRetention with the horizon's tail mass
// pH already evaluated: fabrication draws tens of thousands of cells
// against the same horizon, so the CDF evaluation is hoisted out of
// the per-cell loop.
func (m RetentionModel) sampleWeakTail(pH float64, src *rng.Source) float64 {
	u := src.Float64()
	for u == 0 {
		u = src.Float64()
	}
	return math.Exp(m.MuLog + m.SigmaLog*stats.NormalQuantile(u*pH))
}

// WeakCell is one cell in the retention-failure tail of a DIMM.
type WeakCell struct {
	// Offset is the bit offset of the cell within its DIMM.
	Offset uint64
	// RetentionSec is the cell's retention time at the model's
	// reference temperature (the long state, for VRT cells).
	RetentionSec float64
	// TrueCell reports the cell's polarity: a true cell leaks toward 0
	// and only corrupts data when storing 1; an anti cell the reverse.
	TrueCell bool
	// AltRetentionSec, when non-zero, marks a variable-retention-time
	// (VRT) cell: the cell random-telegraph-switches between
	// RetentionSec and this shorter retention. VRT is why a
	// characterization pass can miss a cell that later fails in the
	// field (Liu et al. [32]), and why the StressLog derates the
	// longest observed error-free interval before publishing it. The
	// cell's current state lives in its DIMM (DIMM.LowState).
	AltRetentionSec float64
}

// VRT reports whether the cell is a variable-retention-time cell.
func (c WeakCell) VRT() bool { return c.AltRetentionSec > 0 }

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
// Only the cells that can fail cost anything per pattern test or VRT
// toggle. The DIMM keeps a retention watermark and the list of cells
// whose shorter retention is below it (the candidates); a pattern test
// raises the watermark to its interval and walks only the candidates,
// the way RAIDR (Liu et al., ISCA 2012) bins rows by retention so that
// refresh attends only to the weak ones. A toggle flips the candidate
// VRT cells at once and defers everyone else's draws to a log, since
// cell j of a toggle at stream position b takes draw b+j+1
// (rng.Source.Peek): the log is folded into the telegraph bitset when
// a cell joins the candidates, when an image is taken (Flatten) and
// when it reaches maxToggleLog entries.
type DIMM struct {
	// CapacityBytes is the module size (the paper uses 8 GB modules).
	CapacityBytes uint64
	// DeviceGb is the per-device density in gigabits (refresh power).
	DeviceGb int
	// Weak holds every cell whose retention falls below the simulation
	// horizon; all other cells never fail at the intervals simulated.
	// It is immutable once fabricated: Grow appends and nothing writes
	// a cell in place. No code outside this package may write Weak.
	Weak []WeakCell

	// vrt indexes the VRT cells within Weak, in cell order; a cell's
	// position in it is its VRT ordinal. Immutable like Weak.
	vrt []int

	// low is the telegraph state by VRT ordinal: bit j is set while
	// VRT cell j sits in its short-retention state, up to the deferred
	// toggles in log.
	low []byte

	// A stamped DIMM's Weak and vrt alias the image's slabs
	// (cellsShared) until Grow copies them into spareWeak and spareVRT,
	// and its low aliases the image's bitset (lowShared) until its
	// first write copies it into spareLow (own). The spares are the
	// buffers the DIMM owned before the stamp.
	cellsShared, lowShared bool
	spareWeak              []WeakCell
	spareVRT               []int
	spareLow               []byte

	// Derived state, reset by every stamp and never serialized. The
	// candidates are exactly the cells whose shorter retention is below
	// watermark, in cell order; no other cell's shorter retention is
	// below floor; candMask marks the candidates by VRT ordinal; log
	// holds the toggles no non-candidate VRT cell has taken yet.
	watermark, floor float64
	cand             []candidate
	candMask         []byte
	log              []toggle
}

// candidate is one cell of a DIMM's candidate list: its index in Weak
// and its VRT ordinal, -1 for a stable cell.
type candidate struct{ cell, ord int }

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

// shorter returns the retention a cell has in its shorter state.
func (d *DIMM) shorter(c candidate) float64 {
	cell := &d.Weak[c.cell]
	if c.ord >= 0 && cell.AltRetentionSec < cell.RetentionSec {
		return cell.AltRetentionSec
	}
	return cell.RetentionSec
}

// retention returns a cell's retention at the reference temperature in
// its current telegraph state; a candidate's state is always current.
func (d *DIMM) retention(c candidate) float64 {
	cell := &d.Weak[c.cell]
	if c.ord >= 0 && bit(d.low, c.ord) {
		return cell.AltRetentionSec
	}
	return cell.RetentionSec
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
// sweep does a few times at most.
func (d *DIMM) raise(w float64) {
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
	j := 0
	for i := range d.Weak {
		c := candidate{cell: i, ord: -1}
		if j < len(d.vrt) && d.vrt[j] == i {
			c.ord = j
			j++
		}
		r := d.shorter(c)
		if !(r < w) {
			if r < d.floor {
				d.floor = r
			}
			continue
		}
		d.cand = append(d.cand, c)
		if c.ord >= 0 && !(r < prev) {
			if d.logFlips(c.ord) {
				d.flip(c.ord)
			}
			d.markCand(c.ord)
		}
	}
}

// reset drops the derived state, as after a stamp: no candidates, an
// unscanned floor and an empty log.
func (d *DIMM) reset() {
	d.watermark, d.floor = 0, 0
	d.cand, d.candMask, d.log = d.cand[:0], d.candMask[:0], d.log[:0]
}

// WeakCellHorizon is the retention horizon below which cells are
// tracked explicitly. Cells above it cannot fail at any interval the
// simulator sweeps: 12 s covers 5 s sweeps with a 10°C temperature
// rise while keeping the explicit weak-cell population compact.
const WeakCellHorizon = 12 * time.Second

// NewDIMM fabricates a DIMM: the weak-cell count is drawn from the
// binomial tail of the retention model and each weak cell gets a
// position, a retention time and a polarity.
func NewDIMM(capacityBytes uint64, deviceGb int, model RetentionModel, src *rng.Source) *DIMM {
	bits := capacityBytes * 8
	pWeak := model.FailProb(WeakCellHorizon, model.RefTempC)
	n := src.Binomial(clampInt(bits), pWeak)
	d := &DIMM{CapacityBytes: capacityBytes, DeviceGb: deviceGb, Weak: make([]WeakCell, 0, n)}
	for i := 0; i < n; i++ {
		d.addCell(bits, pWeak, model, src)
	}
	return d
}

// addCell draws one weak cell — position, retention from the weak
// tail, polarity, VRT membership and a VRT cell's starting telegraph
// state — and appends it, admitting it to the candidates if its
// shorter retention is below the watermark.
func (d *DIMM) addCell(bits uint64, pWeak float64, model RetentionModel, src *rng.Source) {
	cell := WeakCell{
		Offset:       src.Uint64() % bits,
		RetentionSec: model.sampleWeakTail(pWeak, src),
		TrueCell:     src.Bool(),
	}
	c := candidate{cell: len(d.Weak), ord: -1}
	if src.Bernoulli(VRTFraction) {
		cell.AltRetentionSec = cell.RetentionSec / VRTRetentionRatio
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
	d.Weak = append(d.Weak, cell)
	// No deferred toggle covers a new VRT ordinal, so a new candidate
	// needs no catch-up.
	if r := d.shorter(c); r < d.watermark {
		d.cand = append(d.cand, c)
		if c.ord >= 0 {
			d.markCand(c.ord)
		}
	} else if r < d.floor {
		d.floor = r
	}
}

func clampInt(v uint64) int {
	if v > uint64(math.MaxInt64/2) {
		return math.MaxInt64 / 2
	}
	return int(v)
}

// Bits returns the DIMM capacity in bits.
func (d *DIMM) Bits() uint64 { return d.CapacityBytes * 8 }

// Grow appends n freshly-activated weak cells to the DIMM, drawing
// each exactly like fabrication does (position, retention from the
// weak tail, polarity, VRT membership) and keeping the VRT index and
// the candidates current. Field data says the weak-cell population is
// not static (Qureshi et al., AVATAR, DSN 2015: new weak cells keep
// appearing at a roughly constant rate over a device's life); Grow is
// the mechanism lifetime fast-forwards use to model that.
func (d *DIMM) Grow(n int, model RetentionModel, src *rng.Source) {
	if n <= 0 {
		return
	}
	if d.cellsShared {
		d.Weak = append(d.spareWeak[:0], d.Weak...)
		d.vrt = append(d.spareVRT[:0], d.vrt...)
		d.spareWeak, d.spareVRT, d.cellsShared = nil, nil, false
	}
	bits := d.Bits()
	pWeak := model.FailProb(WeakCellHorizon, model.RefTempC)
	for i := 0; i < n; i++ {
		d.addCell(bits, pWeak, model, src)
	}
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

// TotalBits returns the capacity of the whole memory system in bits.
func (ms *MemorySystem) TotalBits() uint64 {
	var total uint64
	for _, d := range ms.Domains {
		total += d.Bits()
	}
	return total
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

// Reindex rebuilds every DIMM's derived state from its weak cells: the
// VRT index (the cells with an AltRetentionSec), the telegraph bitset,
// in which every cell keeps its current state and a newly indexed one
// starts in its long state, and an empty candidate set. A DIMM built
// as a literal gets its derived state here.
func (ms *MemorySystem) Reindex() {
	for _, dom := range ms.Domains {
		for _, d := range dom.DIMMs {
			var vrt []int
			var low []byte
			for i := range d.Weak {
				if !d.Weak[i].VRT() {
					continue
				}
				j := len(vrt)
				if j&7 == 0 {
					low = append(low, 0)
				}
				if d.LowState(i) {
					low[j>>3] |= 1 << (j & 7)
				}
				vrt = append(vrt, i)
			}
			d.vrt, d.low, d.lowShared = vrt, low, false
			d.reset()
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
// over every weak cell.
func (ms *MemorySystem) RunPatternTest(dom *Domain, src *rng.Source) PatternTestResult {
	res := PatternTestResult{Domain: dom.Name, Refresh: dom.Refresh, BitsRead: dom.Bits()}
	toggleVRT(dom, src)
	interval := dom.Refresh.Seconds()
	scale := ms.Model.tempScale(ms.TempC)
	w := interval / scale * (1 + watermarkMargin)
	for _, d := range dom.DIMMs {
		d.raise(w)
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
