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
