// Package benchhist owns the format of the run-over-run benchmark
// histories BENCH_fleet.json and BENCH_campaign.json: the record types,
// how a history is read, capped, written and merged, and which earlier
// record a new measurement gates against. The root package's
// benchmarks append to the histories; cmd/benchgraph renders them and
// merges CI artifacts into them, writing the same bytes.
package benchhist

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Benchmark names, as each history's "benchmark" field records them.
const (
	FleetBenchmark    = "BenchmarkFleetRuntime"
	CampaignBenchmark = "BenchmarkCampaign"
)

// Cap bounds the retained history so the committed records stay
// reviewable; 100 runs is years of CI at current cadence.
const Cap = 100

// Stamp says when and where a history record was measured. Every
// record type embeds it first, so its fields lead each JSON record.
type Stamp struct {
	Date       string `json:"date,omitempty"`
	Env        string `json:"env,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// NewStamp stamps a record measured now, by this process. Its Env
// classifies the host: committed numbers come from the reference
// container ("local"), CI runners are their own class ("ci", when CI
// is set), and a >20% gap between the two measures the hosts, not the
// code. Gates compare only within a class, so the CI-side gates arm
// once a CI-produced record (from the uploaded artifact) is committed.
func NewStamp() Stamp {
	env := "local"
	if os.Getenv("CI") != "" {
		env = "ci"
	}
	return Stamp{Date: time.Now().UTC().Format(time.RFC3339), Env: env, GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

func (s Stamp) stamp() Stamp { return s }

// EnvClass is the record's environment class; records without an env
// stamp are the committed "local" reference numbers.
func (s Stamp) EnvClass() string {
	if s.Env == "" {
		return "local"
	}
	return s.Env
}

// Record is any history record type; each embeds a Stamp.
type Record interface{ stamp() Stamp }

// Previous returns the most recent record measured at this process's
// GOMAXPROCS and environment class (see NewStamp) for which usable
// (when set) holds. Numbers across core counts or host classes measure
// the machine, not the code, so every gate compares against this
// record only.
func Previous[T Record](records []T, usable func(T) bool) (T, bool) {
	like := NewStamp()
	for i := len(records) - 1; i >= 0; i-- {
		st := records[i].stamp()
		if st.GOMAXPROCS == like.GOMAXPROCS && st.EnvClass() == like.EnvClass() &&
			(usable == nil || usable(records[i])) {
			return records[i], true
		}
	}
	var zero T
	return zero, false
}

// Variant is one worker-count leg of a fleet measurement. Efficiency
// is speedup per worker (1.0 = perfect scaling); PeakBytes is the
// HeapAlloc high-water across the leg's measurement loop. Both are
// zero in records that predate them.
type Variant struct {
	Workers    int     `json:"workers"`
	NsPerOp    int64   `json:"ns_per_op"`
	Speedup    float64 `json:"speedup_vs_1_worker"`
	Efficiency float64 `json:"efficiency,omitempty"`
	PeakBytes  int64   `json:"peak_bytes,omitempty"`
}

// Eff is the variant's parallel efficiency, derived as
// speedup/workers for records that predate the efficiency field.
func (v Variant) Eff() float64 {
	if v.Efficiency == 0 && v.Workers > 0 {
		return v.Speedup / float64(v.Workers)
	}
	return v.Efficiency
}

// MaxWorker returns the variant with the highest worker count (the
// first such, in order), or the zero Variant of an empty set.
func MaxWorker(vs []Variant) Variant {
	var top Variant
	for _, v := range vs {
		if v.Workers > top.Workers {
			top = v
		}
	}
	return top
}

// FleetRecord is one dated BenchmarkFleetRuntime measurement.
type FleetRecord struct {
	Stamp
	Fingerprint string    `json:"fingerprint_sha256"`
	Variants    []Variant `json:"variants"`
}

// RestoreRecord is one dated BenchmarkSnapshotRestore measurement:
// both legs from the same snapshot in the same process, so the speedup
// column compares like with like. The legacy_* fields hold the
// reference leg, which Reference names: records without it measured
// the deep-clone restore that has since been deleted, later ones a
// cold stamp into a fresh arena.
type RestoreRecord struct {
	Stamp
	Reference       string  `json:"reference,omitempty"`
	LegacyNsPerOp   int64   `json:"legacy_ns_per_op"`
	LegacyAllocs    float64 `json:"legacy_allocs_per_op"`
	TemplateNsPerOp int64   `json:"template_ns_per_op"`
	TemplateAllocs  float64 `json:"template_allocs_per_op"`
	Speedup         float64 `json:"speedup_vs_legacy"`
}

// FleetFile is the BENCH_fleet.json layout.
type FleetFile struct {
	Benchmark string        `json:"benchmark"`
	Nodes     int           `json:"nodes"`
	Windows   int           `json:"windows"`
	Records   []FleetRecord `json:"records"`
	// Restore is BenchmarkSnapshotRestore's history.
	Restore []RestoreRecord `json:"restore,omitempty"`
}

// CampaignRecord is one dated BenchmarkCampaign measurement. The cache
// counters make a perf claim auditable from the record alone: a
// speedup with zero hits did not come from the snapshot cache.
type CampaignRecord struct {
	Stamp
	Fingerprint string  `json:"fingerprint_sha256"`
	NsPerOp     int64   `json:"ns_per_op"`
	Speedup     float64 `json:"speedup_vs_pre_optimization"`
	CacheHits   uint64  `json:"charact_cache_hits"`
	CacheMisses uint64  `json:"charact_cache_misses"`
}

// CampaignFile is the BENCH_campaign.json layout.
type CampaignFile struct {
	Benchmark string           `json:"benchmark"`
	Scenarios int              `json:"scenarios"`
	Seeds     int              `json:"seeds"`
	Nodes     int              `json:"nodes"`
	Windows   int              `json:"windows"`
	BeforeNs  int64            `json:"before_ns_per_op"`
	Records   []CampaignRecord `json:"records"`
}

// Append adds rec to the history, dropping the oldest records past Cap.
func Append[T any](records []T, rec T) []T {
	return capped(append(records, rec))
}

func capped[T any](rs []T) []T {
	if len(rs) > Cap {
		rs = rs[len(rs)-Cap:]
	}
	return rs
}

// Load decodes the history at path into v (a *FleetFile or
// *CampaignFile). A missing file's error satisfies
// errors.Is(err, fs.ErrNotExist); a malformed one is an error too.
func Load(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s is malformed: %w", path, err)
	}
	return nil
}

// Write rewrites the history at path: indented JSON in field order,
// newline-terminated.
func Write(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshaling %s: %w", path, err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Merge folds the records of the history artifact at src into the
// committed history of the benchmark that wrote it — campaignPath when
// its "benchmark" field names BenchmarkCampaign, fleetPath otherwise —
// and rewrites that history with Write, so a merge that adds nothing
// leaves it byte-identical. It returns the path merged into and the
// number of records added.
func Merge(fleetPath, campaignPath, src string) (string, int, error) {
	var head struct {
		Benchmark string `json:"benchmark"`
	}
	if err := Load(src, &head); err != nil {
		return "", 0, err
	}
	if head.Benchmark == CampaignBenchmark {
		n, err := mergeFile(campaignPath, src, func(d *CampaignFile, s CampaignFile) (n int) {
			d.Records, n = merge(d.Records, s.Records)
			return n
		})
		return campaignPath, n, err
	}
	n, err := mergeFile(fleetPath, src, func(d *FleetFile, s FleetFile) int {
		var records, restore int
		d.Records, records = merge(d.Records, s.Records)
		d.Restore, restore = merge(d.Restore, s.Restore)
		return records + restore
	})
	return fleetPath, n, err
}

func mergeFile[F any](dst, src string, fold func(*F, F) int) (int, error) {
	var d, s F
	if err := Load(dst, &d); err != nil {
		return 0, err
	}
	if err := Load(src, &s); err != nil {
		return 0, err
	}
	return fold(&d, s), Write(dst, d)
}

// merge appends the incoming records have lacks, in order, keeps the
// last Cap, and returns how many it appended. Re-merging the same
// records is a no-op.
func merge[T Record](have, incoming []T) ([]T, int) {
	seen := make(map[string]bool, len(have))
	for _, r := range have {
		seen[identity(r)] = true
	}
	added := 0
	for _, r := range incoming {
		if id := identity(r); !seen[id] {
			have = append(have, r)
			seen[id] = true
			added++
		}
	}
	return capped(have), added
}

// identity keys a record for merge deduplication. Dated records (every
// record the current benchmarks write) are identified by when and
// where they were measured; an undated one by its whole JSON form.
func identity[T Record](r T) string {
	if st := r.stamp(); st.Date != "" {
		return fmt.Sprintf("%s|%s|%d", st.Date, st.Env, st.GOMAXPROCS)
	}
	b, _ := json.Marshal(r)
	return string(b)
}
