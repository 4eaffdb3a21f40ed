package fleet

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"uniserver/internal/core"
)

// TestAttachDirConcurrentFresh attaches many caches to one fresh
// directory at once, as the campaign service and parallel CLI runs do
// with a shared result store. Every attach must succeed: none may
// read another's half-written version stamp as a version mismatch.
// The directory ends up stamped with this build's version and holds
// no leftover temp files.
func TestAttachDirConcurrentFresh(t *testing.T) {
	const attachers, rounds = 16, 200
	want := strconv.Itoa(core.SnapshotFormatVersion)
	for r := 0; r < rounds; r++ {
		dir := filepath.Join(t.TempDir(), "charact")
		var wg sync.WaitGroup
		errs := make([]error, attachers)
		start := make(chan struct{})
		for g := 0; g < attachers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				errs[g] = NewCharactCache().AttachDir(dir)
			}(g)
		}
		close(start)
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("round %d: attacher %d: %v", r, g, err)
			}
		}
		data, err := os.ReadFile(filepath.Join(dir, charactDirVersionFile))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(string(data)); got != want {
			t.Fatalf("round %d: stamp %q, want %q", r, got, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("round %d: directory holds %d entries, want only the stamp", r, len(entries))
		}
	}
}

// TestAttachDirEmptyStamp treats an empty stamp — a writer truncated
// it and has not written yet, or died — as not stamped: the attach
// stamps the directory instead of refusing it as a mismatch.
func TestAttachDirEmptyStamp(t *testing.T) {
	dir := t.TempDir()
	vpath := filepath.Join(dir, charactDirVersionFile)
	if err := os.WriteFile(vpath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewCharactCache().AttachDir(dir); err != nil {
		t.Fatalf("empty stamp refused: %v", err)
	}
	data, err := os.ReadFile(vpath)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(string(data)), strconv.Itoa(core.SnapshotFormatVersion); got != want {
		t.Fatalf("stamp %q, want %q", got, want)
	}
}

// TestSpillQuarantine corrupts one spill file three ways — one flipped
// byte in the middle, a truncation, an intact entry copied over
// another key's file — and runs a fresh cache on the directory. The
// corrupt file must be moved to quarantine/ and its key
// re-characterized (every other key still served from disk), the
// failure must be reported by DiskErr, and the fleet fingerprint must
// not change.
func TestSpillQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	const nodes = 3
	run := func(dir string) (string, CacheStats, error) {
		t.Helper()
		cache := NewCharactCache()
		if err := cache.AttachDir(dir); err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(nodes, 2)
		cfg.Windows = 6
		cfg.Charact = cache
		sum, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sum.Fingerprint(), cache.Stats(), cache.DiskErr()
	}
	rewrite := func(t *testing.T, path string, edit func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corruptions := map[string]func(t *testing.T, files []string){
		"flip": func(t *testing.T, files []string) {
			rewrite(t, files[0], func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b })
		},
		"truncate": func(t *testing.T, files []string) {
			rewrite(t, files[0], func(b []byte) []byte { return b[:len(b)-100] })
		},
		"wrong-key": func(t *testing.T, files []string) {
			other, err := os.ReadFile(files[1])
			if err != nil {
				t.Fatal(err)
			}
			rewrite(t, files[0], func([]byte) []byte { return other })
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			want, _, err := run(dir)
			if err != nil {
				t.Fatalf("cold spill failed: %v", err)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.charact"))
			if err != nil || len(files) != nodes {
				t.Fatalf("spill holds %d entries (%v), want %d", len(files), err, nodes)
			}
			corrupt(t, files)

			got, stats, diskErr := run(dir)
			if got != want {
				t.Fatalf("fingerprint changed after quarantine:\n--- clean ---\n%s--- corrupt ---\n%s", want, got)
			}
			if diskErr == nil || !strings.Contains(diskErr.Error(), "quarantined") {
				t.Fatalf("DiskErr = %v, want the quarantine reported", diskErr)
			}
			if stats.Misses != 1 || stats.DiskHits != nodes-1 {
				t.Fatalf("stats %+v: want the one corrupt key re-characterized, the rest from disk", stats)
			}
			if _, err := os.Stat(filepath.Join(dir, quarantineDir, filepath.Base(files[0]))); err != nil {
				t.Fatalf("corrupt file not quarantined: %v", err)
			}
			// The re-characterization spilled a clean entry back.
			if _, stats, err := run(dir); err != nil || stats.DiskHits != nodes {
				t.Fatalf("after quarantine: stats %+v, DiskErr %v; want every key from disk", stats, err)
			}
		})
	}
}
