package resultstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The addresses the fuzz targets read. The seed corpora
// (testdata/fuzz/FuzzGetCell, testdata/fuzz/FuzzGetRun) hold a record
// valid under each, the same record truncated, filed under another
// address, with a corrupted fingerprint, and bytes that are not JSON.
const (
	fuzzCellKey = "5eed00000000000000000000000000000000000000000000000000000000c0de"
	fuzzRunID   = "r5eed00000000c0de"
)

// fuzzRead writes data where the record at rel lives in a fresh store,
// reads it back, and checks the read: it must not panic, it may return
// only a record valid for its address, and what it rejects it must
// quarantine — counted, moved out of place, its bytes kept.
func fuzzRead(t *testing.T, data []byte, rel string, read func(*Store) (ok, valid bool)) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	path := filepath.Join(st.Dir(), rel)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, valid := read(st)
	_, statErr := os.Stat(path)
	quarantined := st.Stats().Quarantined
	switch {
	case ok && !valid:
		t.Fatal("served a record that is not valid for its address")
	case ok && (statErr != nil || quarantined != 0):
		t.Fatalf("served a record and quarantined it (stat %v, %d quarantined)", statErr, quarantined)
	case !ok && (statErr == nil || quarantined != 1):
		t.Fatalf("rejected a record without quarantining it (stat %v, %d quarantined)", statErr, quarantined)
	case !ok:
		kept, err := os.ReadFile(filepath.Join(st.Dir(), quarantineDir, filepath.Base(path)))
		if err != nil || !bytes.Equal(kept, data) {
			t.Fatalf("quarantine lost the rejected bytes: %v", err)
		}
	}
}

// FuzzGetCell feeds GetCell arbitrary bytes in place of a cell record.
func FuzzGetCell(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRead(t, data, filepath.Join(cellsDir, fuzzCellKey+".json"), func(st *Store) (bool, bool) {
			rec, ok := st.GetCell(fuzzCellKey)
			return ok, rec.valid(fuzzCellKey)
		})
	})
}

// FuzzGetRun feeds GetRun arbitrary bytes in place of a run manifest.
func FuzzGetRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRead(t, data, filepath.Join(runsDir, fuzzRunID+".json"), func(st *Store) (bool, bool) {
			m, ok := st.GetRun(fuzzRunID)
			return ok, m.ID == fuzzRunID
		})
	})
}
