// Package resultstore is the persistent, content-addressed campaign
// result store behind `uniserver serve`, `uniserver diff` and the
// CLI's -result-store flag: one record per (scenario, seed) campaign
// cell, keyed by the sha256 of the cell's canonical request, plus one
// manifest per campaign run, all under a versioned directory written
// atomically.
//
// Content addressing is sound because the fleet engine is
// deterministic: a cell's canonical request — the resolved Scenario
// declaration (execution knobs excluded) and the seed — fully
// determines its fingerprint, so a stored record is byte-identical to
// what re-running the cell would produce, and a campaign interrupted
// at any cell boundary resumes by serving completed cells from the
// store and executing only the missing ones.
//
// The store never trusts its own bytes: every read re-derives the
// record's fingerprint hash and checks it (and the content address)
// against what the file claims. A torn, truncated or corrupted record
// — a crash mid-write on a filesystem without atomic rename, a flipped
// bit — is quarantined and reported as a miss, never returned and
// never crashed on; the cell simply re-runs and overwrites it.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"uniserver/internal/core"
	"uniserver/internal/fleet"
	"uniserver/internal/scenario"
)

// FormatVersion identifies the store's on-disk record encoding. The
// directory is stamped with it on creation; opening a directory
// stamped with any other version is refused (mirroring the
// characterization snapshot cache), because silently mixing record
// layouts would corrupt cross-run comparisons rather than merely miss.
const FormatVersion = 1

const (
	versionFile   = "VERSION"
	cellsDir      = "cells"
	runsDir       = "runs"
	quarantineDir = "quarantine"
)

// Store is a content-addressed on-disk result store. It is safe for
// concurrent use by any number of goroutines and — because every write
// is a whole-file atomic rename of content that is a pure function of
// its key — by any number of processes sharing the directory.
type Store struct {
	dir string

	hits, misses, puts, quarantined atomic.Uint64
}

// Open roots a store at dir, creating and version-stamping it if
// needed. A directory stamped by a different format version is
// refused: clear it or point the store elsewhere.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, cellsDir), filepath.Join(dir, runsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: creating %s: %w", d, err)
		}
	}
	vpath := filepath.Join(dir, versionFile)
	want := strconv.Itoa(FormatVersion)
	if data, err := os.ReadFile(vpath); err == nil {
		if got := strings.TrimSpace(string(data)); got != want {
			return nil, fmt.Errorf("resultstore: %s is version %s, this build writes version %s; refusing mismatched versions (clear the dir or use another)",
				dir, got, want)
		}
	} else if os.IsNotExist(err) {
		if err := os.WriteFile(vpath, []byte(want+"\n"), 0o644); err != nil {
			return nil, fmt.Errorf("resultstore: stamping %s: %w", dir, err)
		}
	} else {
		return nil, fmt.Errorf("resultstore: reading version stamp: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// CharactDir returns the store's characterization-snapshot spill
// directory — hand it to Campaign.CharactDir (it is created and
// version-stamped by fleet.CharactCache.AttachDir on first use), so
// resumed campaigns skip not only completed cells but also the
// pre-deployment characterizations of incomplete ones. The directory
// is named by core.SnapshotFormatVersion ("charact-v<N>"), so a build
// that changes the snapshot format starts a fresh spill beside the
// old one instead of having AttachDir refuse every campaign. No build
// reads another version's directory (nor the unversioned "charact"
// of stores written before the name carried the version); they may be
// deleted.
func (st *Store) CharactDir() string {
	return filepath.Join(st.dir, "charact-v"+strconv.Itoa(core.SnapshotFormatVersion))
}

// Stats counts the store's traffic: a hit is a cell served from disk,
// a miss a key not present (or quarantined), a put a record written,
// and quarantined the records integrity checking pulled aside.
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Quarantined uint64 `json:"quarantined,omitempty"`
}

// Stats returns the store's counters (process-local, not persisted).
func (st *Store) Stats() Stats {
	return Stats{
		Hits:        st.hits.Load(),
		Misses:      st.misses.Load(),
		Puts:        st.puts.Load(),
		Quarantined: st.quarantined.Load(),
	}
}

// cellRequest is the canonical content a cell's address hashes: the
// format version, the seed, and the resolved scenario declaration.
type cellRequest struct {
	V        int               `json:"v"`
	Seed     uint64            `json:"seed"`
	Scenario scenario.Scenario `json:"scenario"`
}

// CellKey derives the content address of one (scenario, seed) cell:
// the hex sha256 of its canonical request JSON, plus the request bytes
// themselves (stored in the record for auditability). Execution knobs
// that never change results are canonicalized out — Shards is zeroed
// (the shard-invariance contract) — while every result-bearing field,
// Archetypes included, stays in. Two requests therefore share a record
// exactly when the determinism contract guarantees byte-identical
// results.
func CellKey(s scenario.Scenario, seed uint64) (key string, canonical []byte, err error) {
	s.Shards = 0
	canonical, err = json.Marshal(cellRequest{V: FormatVersion, Seed: seed, Scenario: s})
	if err != nil {
		return "", nil, fmt.Errorf("resultstore: canonicalizing cell request: %w", err)
	}
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:]), canonical, nil
}

// CellRecord is one stored campaign cell. Fingerprint is the full
// multi-line fleet fingerprint (what campaign-level hashes
// concatenate); FingerprintSHA256 is its hash and doubles as the
// record's integrity check.
type CellRecord struct {
	Key               string          `json:"key"`
	Scenario          string          `json:"scenario"`
	Seed              uint64          `json:"seed"`
	Request           json.RawMessage `json:"request"`
	Fingerprint       string          `json:"fingerprint"`
	FingerprintSHA256 string          `json:"fingerprint_sha256"`
	Summary           fleet.Summary   `json:"summary"`
}

func sha256Hex(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// valid reports whether the record's internal integrity holds under
// the given content address.
func (r CellRecord) valid(key string) bool {
	return r.Key == key && r.Fingerprint != "" && sha256Hex(r.Fingerprint) == r.FingerprintSHA256
}

func (st *Store) cellPath(key string) string {
	return filepath.Join(st.dir, cellsDir, key+".json")
}

// PutCell writes rec atomically (temp file + rename into place), so a
// concurrent reader — or another process sharing the store — observes
// either the whole record or none of it. Re-putting a key is
// idempotent: content addressing means the bytes are equal.
func (st *Store) PutCell(rec CellRecord) error {
	if !rec.valid(rec.Key) {
		return fmt.Errorf("resultstore: refusing to store inconsistent cell record for %s.%d", rec.Scenario, rec.Seed)
	}
	if err := st.writeAtomic(st.cellPath(rec.Key), rec); err != nil {
		return err
	}
	st.puts.Add(1)
	return nil
}

// GetCell serves key from disk. Missing keys are plain misses; a
// record that fails integrity checking (torn write, truncation,
// corruption, a record filed under the wrong address) is moved to the
// quarantine directory and reported as a miss — the caller re-runs the
// cell and overwrites it, and the quarantined bytes stay available for
// post-mortem.
func (st *Store) GetCell(key string) (CellRecord, bool) {
	path := st.cellPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		st.misses.Add(1)
		return CellRecord{}, false
	}
	var rec CellRecord
	if err := json.Unmarshal(data, &rec); err != nil || !rec.valid(key) {
		st.quarantine(path)
		st.misses.Add(1)
		return CellRecord{}, false
	}
	st.hits.Add(1)
	return rec, true
}

// CellCount reports how many cell records the store holds on disk.
func (st *Store) CellCount() (int, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, cellsDir))
	if err != nil {
		return 0, fmt.Errorf("resultstore: listing cells: %w", err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n, nil
}

// quarantine moves a failed record aside (best effort — if even the
// rename fails the file is removed so the next put can land).
func (st *Store) quarantine(path string) {
	st.quarantined.Add(1)
	dst := filepath.Join(st.dir, quarantineDir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
}

// Run statuses. A manifest stays RunRunning across a crash — that is
// the resume signal — and moves to RunComplete or RunFailed only when
// its campaign finishes.
const (
	RunRunning  = "running"
	RunComplete = "complete"
	RunFailed   = "failed"
)

// RunManifest is one submitted campaign: its identity, the resolved
// request (sufficient to re-run it), the cells it addresses, and — on
// completion — the full report. The ID is content-derived (RunID over
// the cell keys), so the same campaign submitted from the CLI and the
// server lands on the same manifest.
type RunManifest struct {
	ID     string `json:"id"`
	Status string `json:"status"`

	// Scenarios and Seeds are the resolved grid — presets already
	// looked up and scaled — so resume never re-interprets the
	// submission against a possibly-changed preset table.
	Scenarios []scenario.Scenario `json:"scenarios"`
	Seeds     []uint64            `json:"seeds"`
	// FleetWorkers and Parallel are execution knobs replayed on
	// resume; they never feed the run's identity.
	FleetWorkers int `json:"fleet_workers,omitempty"`
	Parallel     int `json:"parallel,omitempty"`

	CellKeys []string `json:"cell_keys"`

	// FingerprintSHA256 and Report land when the run completes.
	// CachedCells counts cells the (re)run served from the store.
	FingerprintSHA256 string           `json:"fingerprint_sha256,omitempty"`
	CachedCells       int              `json:"cached_cells,omitempty"`
	Report            *scenario.Report `json:"report,omitempty"`
	Error             string           `json:"error,omitempty"`
}

// RunID derives a run's content-addressed identity from its cell keys
// (order-sensitive: the grid order is part of the campaign
// fingerprint).
func RunID(cellKeys []string) string {
	sum := sha256.Sum256([]byte(strings.Join(cellKeys, "\n")))
	return "r" + hex.EncodeToString(sum[:8])
}

func (st *Store) runPath(id string) string {
	return filepath.Join(st.dir, runsDir, id+".json")
}

// PutRun writes a run manifest atomically.
func (st *Store) PutRun(m RunManifest) error {
	if m.ID == "" {
		return fmt.Errorf("resultstore: run manifest without an ID")
	}
	return st.writeAtomic(st.runPath(m.ID), m)
}

// GetRun loads a run manifest. A torn or corrupted manifest is
// quarantined and reported as absent, like a cell record.
func (st *Store) GetRun(id string) (RunManifest, bool) {
	path := st.runPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return RunManifest{}, false
	}
	var m RunManifest
	if err := json.Unmarshal(data, &m); err != nil || m.ID != id {
		st.quarantine(path)
		return RunManifest{}, false
	}
	return m, true
}

// ListRuns returns every readable run manifest, sorted by ID for a
// stable listing.
func (st *Store) ListRuns() ([]RunManifest, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, runsDir))
	if err != nil {
		return nil, fmt.Errorf("resultstore: listing runs: %w", err)
	}
	var runs []RunManifest
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		if m, ok := st.GetRun(strings.TrimSuffix(name, ".json")); ok {
			runs = append(runs, m)
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].ID < runs[j].ID })
	return runs, nil
}

// writeAtomic marshals v and renames it into place, so no reader —
// in-process or cross-process — ever observes a partial record.
// Records are written compact, not indented: indentation would rewrite
// the embedded canonical Request bytes (json.RawMessage is re-indented
// by the encoder), breaking the byte-exact round trip the content
// address audits against.
func (st *Store) writeAtomic(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("resultstore: marshaling %s: %w", filepath.Base(path), err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("resultstore: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("resultstore: writing %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resultstore: closing %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("resultstore: committing %s: %w", filepath.Base(path), err)
	}
	return nil
}
