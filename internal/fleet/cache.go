package fleet

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"uniserver/internal/core"
	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/rng"
)

// CharactCache memoizes pre-deployment characterization results by
// (node seed, characterization-relevant NodeSpec): the first consumer
// of a key pays the full core.New + PreDeployment cost and publishes a
// core.Snapshot; every later consumer — typically the same node index
// in another campaign cell — stamps an independent node from it in
// microseconds instead of re-running the multi-second campaign. This
// is the biggest campaign-cost multiplier: a scenario×seed grid
// re-characterized each seed's spec set once per scenario.
//
// The cache is safe for concurrent use from any number of fleet runs,
// and it is contention-free by construction: entries live in a
// sync.Map (hits never take a lock), and each entry is a per-key
// singleflight — the first arrival characterizes, duplicate arrivals
// on the same in-flight key coalesce onto that one run (counted in
// Stats.Coalesced) instead of duplicating it, and misses on distinct
// keys characterize fully in parallel. Disk-spill I/O happens after
// the entry publishes, so coalesced waiters are released while the
// characterizing goroutine is still writing the spill file. Because
// characterization is a pure function of the key — the excluded spec
// fields only shape what happens after the stamp — results are
// byte-identical no matter which consumer populates an entry first, at
// any worker count or campaign parallelism: who computes a key is
// unobservable in the results.
//
// That purity also lets a waiter help instead of block. Scenario
// runs Plan each cell's keys; a consumer that finds its own key in
// flight characterizes the next planned key nobody has started (Help)
// and blocks only once the plan is empty, and a campaign slot that
// runs out of cells drains the plan the same way.
type CharactCache struct {
	// entries maps key → *charactEntry. A sync.Map instead of a
	// mutex-guarded map because the steady state of a campaign is
	// read-mostly (every node of every cell probes the cache; only the
	// first consumer per key writes), which is exactly the sync.Map
	// sweet spot — the hot hit path is lock-free.
	entries sync.Map

	// dir, when non-empty, roots the on-disk spill (diskcache.go):
	// characterized snapshots persist across processes, and keys not
	// yet seen in memory are first sought on disk. Held in an
	// atomic.Value so worker goroutines never contend on a lock just
	// to learn whether spilling is enabled.
	dir atomic.Value // string

	// diskErr retains the first best-effort spill failure for the CLI
	// to surface; its mutex is touched only on the (rare) error path.
	diskErrMu sync.Mutex
	diskErr   error

	// plan holds the keys Plan queued, oldest first: keys planned
	// cells will need that nobody had started when they were planned.
	// Help pops from the front and skips keys started since.
	planMu sync.Mutex
	plan   []plannedKey

	hits, misses, coalesced, diskHits, compiled atomic.Uint64
}

// charactFunc runs one characterization, logging into out (nil
// discards).
type charactFunc func(out io.Writer) (*core.Ecosystem, error)

// plannedKey is one queued key with the builder its consumer would
// have run.
type plannedKey struct {
	key     string
	wantLog bool
	build   charactFunc
}

// charactEntry is one key's singleflight slot. The creating goroutine
// writes the result fields and then closes done; everyone else waits
// on done and reads the fields afterwards (the channel close is the
// happens-before edge). Fields are read-only once done is closed.
type charactEntry struct {
	done chan struct{}
	// snap is shared read-only by every consumer: the stamp path takes
	// zero lock acquisitions on shared state.
	snap *core.Snapshot
	log  []byte
	err  error
	// helped marks an entry a helper created ahead of its consumers.
	// The first consumer clears it and is not counted as a hit, just
	// as it would not have been as the entry's creator.
	helped atomic.Bool
}

// NewCharactCache returns an empty cache.
func NewCharactCache() *CharactCache {
	return &CharactCache{}
}

// CacheStats counts cache outcomes: a miss is a characterization
// actually run, a hit is a node served from an in-memory snapshot,
// and a disk hit is a key's first consumer served from the attached
// spill directory instead of re-running the campaign. A key a helper
// characterized counts its miss (or disk hit) once and its first
// consumer no hit, exactly as if that consumer had characterized it.
// Coalesced counts consumers that found their key in flight with no
// planned key left to help with and blocked on it. Hits, misses and
// disk hits are deterministic functions of the run (misses = distinct
// keys characterized), at any parallelism; Coalesced depends on
// goroutine timing and is execution telemetry, like wall-clock.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced,omitempty"`
	DiskHits  uint64 `json:"disk_hits,omitempty"`
	// Compiled counts snapshots published (one per successfully
	// characterized entry, whether it came from a fresh run or the
	// disk spill) — the snapshot cost amortized across every stamp.
	Compiled uint64 `json:"compiled,omitempty"`
}

// Stats returns the cache's hit/miss/coalesced counters.
func (c *CharactCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		DiskHits:  c.diskHits.Load(),
		Compiled:  c.compiled.Load(),
	}
}

// entry returns key's singleflight slot and whether this caller
// created it (and therefore owns running the characterization).
func (c *CharactCache) entry(key string) (*charactEntry, bool) {
	if v, ok := c.entries.Load(key); ok {
		return v.(*charactEntry), false
	}
	v, loaded := c.entries.LoadOrStore(key, &charactEntry{done: make(chan struct{})})
	return v.(*charactEntry), !loaded
}

// characterized returns the snapshot and captured health-log bytes
// for key, invoking characterize at most once per key across all
// goroutines: the entry's creator runs it, duplicate concurrent
// arrivals help with planned keys and then coalesce onto the in-flight
// run, and later arrivals are plain hits. When wantLog is set the
// characterization writes its health log into a cache-owned buffer
// whose bytes every consumer replays into its own node log — the lines
// are identical to what a fresh characterization would have written,
// because characterization is deterministic in the key.
func (c *CharactCache) characterized(key string, wantLog bool,
	characterize charactFunc) (*core.Snapshot, []byte, error) {
	e, creator := c.entry(key)
	if creator {
		c.create(key, e, wantLog, characterize)
	} else {
		c.await(e)
		// The load keeps the common hit from writing the shared entry.
		if !e.helped.Load() || !e.helped.CompareAndSwap(true, false) {
			c.hits.Add(1)
		}
	}
	return e.snap, e.log, e.err
}

// await returns once e is published. While e is in flight it
// characterizes planned keys nobody has started, and it blocks only
// when none is left.
func (c *CharactCache) await(e *charactEntry) {
	for {
		select {
		case <-e.done:
			return
		default:
		}
		if !c.Help() {
			break
		}
	}
	select {
	case <-e.done:
	default:
		c.coalesced.Add(1)
		<-e.done
	}
}

// create runs key's one characterization on the calling goroutine,
// which created e. The attached spill directory serves a key's first
// consumer in this process when another process already characterized
// it; anything unreadable falls through to a fresh run.
func (c *CharactCache) create(key string, e *charactEntry, wantLog bool, characterize charactFunc) {
	fromDisk := false
	if c.spillDir() != "" {
		if snap, log, ok := c.loadDisk(key); ok {
			fromDisk = true
			e.snap, e.log = snap, log
		}
	}
	if !fromDisk {
		var buf *bytes.Buffer
		var out io.Writer
		if wantLog {
			buf = &bytes.Buffer{}
			out = buf
		}
		eco, err := characterize(out)
		if err == nil {
			e.snap, err = eco.Snapshot()
			if err == nil && buf != nil {
				e.log = buf.Bytes()
			}
		}
		e.err = err
	}
	if e.err == nil {
		c.compiled.Add(1)
	}
	// Publish before spilling: closing done releases every coalesced
	// waiter — the close is the happens-before edge that makes the
	// entry visible to them — so the disk write below happens outside
	// the key's critical section: waiters stamp nodes while the creator
	// is still persisting the entry.
	close(e.done)
	if fromDisk {
		c.diskHits.Add(1)
	} else {
		c.misses.Add(1)
		if e.err == nil && c.spillDir() != "" {
			c.spillDisk(key, e.snap, e.log)
		}
	}
}

// planNodes bounds how many of a cell's nodes Plan resolves, so
// planning a 100k-node cell costs a handful of Node calls, not 100k.
// Campaign cells past the bound characterize as they always did.
const planNodes = 16

// Plan queues the keys of cfg's first nodes, in node order, that the
// cache has not seen, each with the builder fleet.Run would give it.
// Goroutines blocked on an in-flight key then characterize them
// instead of waiting (Help). Results do not depend on it: a planned
// key is characterized exactly as its node would have characterized
// it. Scenario runs plan each cell before running it; fleet.Run never
// plans.
func (c *CharactCache) Plan(cfg Config) {
	wantLog := cfg.HealthLogOut != nil
	bins := newBinMemo(cfg.Seed, wantLog)
	var keys []plannedKey
	for i := range min(cfg.Nodes, planNodes) {
		spec := cfg.nodeSpec(i)
		key, seed := bins.job(NodeSeed(cfg.Seed, i), spec, cfg.Archetypes)
		if _, seen := c.entries.Load(key); !seen {
			keys = append(keys, plannedKey{key: key, wantLog: wantLog, build: charactBuilder(spec, seed)})
		}
	}
	c.planMu.Lock()
	c.plan = append(c.plan, keys...)
	c.planMu.Unlock()
}

// Pending reports whether a planned key is still unstarted.
func (c *CharactCache) Pending() bool {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	for len(c.plan) > 0 {
		if _, seen := c.entries.Load(c.plan[0].key); !seen {
			return true
		}
		c.popPlan()
	}
	return false
}

// Help characterizes the first planned key nobody has started, on the
// calling goroutine, and reports whether there was one.
func (c *CharactCache) Help() bool {
	for {
		c.planMu.Lock()
		if len(c.plan) == 0 {
			c.planMu.Unlock()
			return false
		}
		p := c.popPlan()
		c.planMu.Unlock()
		if e, creator := c.entry(p.key); creator {
			e.helped.Store(true)
			c.create(p.key, e, p.wantLog, p.build)
			return true
		}
	}
}

// popPlan removes and returns the plan's first key. c.planMu must be
// held.
func (c *CharactCache) popPlan() plannedKey {
	p := c.plan[0]
	c.plan[0] = plannedKey{} // release the builder's closure
	c.plan = c.plan[1:]
	return p
}

// ArchetypeBin canonically renders the characterization identity of a
// NodeSpec: every field PreDeployment actually reads — the silicon
// part (with its full process corner) and the DRAM configuration
// (whose initial temperature the retention pattern tests consult) —
// and nothing else. Mode, risk target, workload, schedulable memory
// and the ambient temperatures are deliberately excluded: they only
// shape the deployment that runs after the stamp (mode entry
// re-derives the operating point from the stamped table, and the stamp
// re-seats the thermal nodes), so specs differing only in those
// deployment-phase fields land in the same bin. A zero Part is
// canonicalized to the part DefaultOptions resolves it to, so
// explicit-default and implicit-default specs collide.
//
// The same string serves two consumers: scopedKey scopes it by node
// seed for the per-node snapshot cache, and archetype-clone
// characterization (Config.Archetypes) uses it seedless, as the bin
// identity all same-spec nodes share. The %+v renderings are
// deterministic (the structs contain no maps) and intentionally
// field-exhaustive: a field added to PartSpec, Process or dram.Config
// changes the bin and conservatively splits the cache rather than
// silently sharing across a difference.
func ArchetypeBin(spec NodeSpec) string {
	part := spec.Part
	if part.Cores == 0 {
		part = core.DefaultOptions().Part
	}
	return fmt.Sprintf("part=%+v mem=%+v", part, spec.Mem)
}

// ArchetypeSeed derives the characterization seed of an archetype bin
// from the fleet seed — the bin-level analogue of NodeSeed, and like
// it a pure function, so which node first characterizes a bin can
// never matter.
func ArchetypeSeed(seed uint64, bin string) uint64 {
	return rng.New(seed).SplitLabeled("fleet/archetype/" + bin).Uint64()
}

// scopedKey scopes a rendered bin by the seed that drives its
// characterization (the node seed on the per-node path, the bin seed
// under Config.Archetypes) — byte for byte what fmt's
// "seed=%d log=%t %s" produces, without fmt. wantLog is part of the
// key because log bytes are captured only when a health log was
// requested.
func scopedKey(seed uint64, wantLog bool, bin string) string {
	return "seed=" + strconv.FormatUint(seed, 10) + " log=" + strconv.FormatBool(wantLog) + " " + bin
}

// binMemo resolves node specs to their characterization identities
// once per distinct spec for the whole of one fleet run. ArchetypeBin
// renders a spec through fmt reflection; per node, twice (the bin seed
// and the cache key), that cost more than stamping the node. Workers
// share one memo under a mutex — a map probe per node.
type binMemo struct {
	fleetSeed uint64
	wantLog   bool
	mu        sync.Mutex
	bins      map[binSpec]*binInfo
}

// binSpec is the comparable form of the NodeSpec fields ArchetypeBin
// renders. The only field values that compare equal yet render
// differently are floats of opposite zero sign, which describe the
// same part; NaN never compares equal, so it is re-rendered per node
// and stays correct.
type binSpec struct {
	part cpu.PartSpec
	mem  dram.Config
}

// binInfo is one spec's memoized identity.
type binInfo struct {
	bin     string // ArchetypeBin(spec)
	binSeed uint64 // ArchetypeSeed(fleetSeed, bin)
	archKey string // scopedKey(binSeed, wantLog, bin)
}

func newBinMemo(fleetSeed uint64, wantLog bool) *binMemo {
	return &binMemo{fleetSeed: fleetSeed, wantLog: wantLog, bins: make(map[binSpec]*binInfo)}
}

// lookup returns spec's identity, rendering it on the spec's first use.
func (m *binMemo) lookup(spec NodeSpec) *binInfo {
	k := binSpec{part: spec.Part, mem: spec.Mem}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.bins[k]; ok {
		return b
	}
	bin := ArchetypeBin(spec)
	b := &binInfo{bin: bin, binSeed: ArchetypeSeed(m.fleetSeed, bin)}
	b.archKey = scopedKey(b.binSeed, m.wantLog, bin)
	m.bins[k] = b
	return b
}

// nodeKey is the cache key of a node's own seed on the per-node cached
// path.
func (m *binMemo) nodeKey(seed uint64, spec NodeSpec) string {
	return scopedKey(seed, m.wantLog, m.lookup(spec).bin)
}

// job resolves the characterization a node of this seed and spec
// needs: its cache key and the seed its builder, charactBuilder(spec,
// seed), runs. Under archetypes both are the bin's. fleet.Run's nodes
// and Plan both resolve through here, so a planned key and its builder
// cannot drift from what the node would run. It returns the seed
// rather than the builder so a node's builder closure can stay on its
// stack: a returned closure escapes, one heap copy of the spec per
// node.
func (m *binMemo) job(seed uint64, spec NodeSpec, archetypes bool) (string, uint64) {
	if archetypes {
		b := m.lookup(spec)
		return b.archKey, b.binSeed
	}
	return m.nodeKey(seed, spec), seed
}
