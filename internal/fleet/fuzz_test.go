package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"uniserver/internal/core"
	"uniserver/internal/dram"
)

// fuzzEntryKey is the cache key every FuzzDecodeEntry input is decoded
// under; the valid seed in testdata/fuzz/FuzzDecodeEntry is filed
// under it.
const fuzzEntryKey = "fuzz/entry"

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite the FuzzDecodeEntry seed corpus in testdata/fuzz/FuzzDecodeEntry")

// corpusDir holds FuzzDecodeEntry's seed corpus, which go test runs as
// ordinary test cases.
var corpusDir = filepath.Join("testdata", "fuzz", "FuzzDecodeEntry")

// FuzzDecodeEntry feeds decodeEntry arbitrary spill files, both as
// given and with the header checksum recomputed over the length the
// header claims — the second form is how the fuzzer gets past the
// checksum to the gob header and the snapshot behind it. decodeEntry
// must never panic, and whatever it accepts must be filed under the
// key asked for and hold a snapshot that re-saves to exactly the bytes
// it was read from.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withHeaderChecksum(data)} {
			snap, ent, err := decodeEntry(in, fuzzEntryKey)
			if err != nil {
				continue
			}
			if ent.Key != fuzzEntryKey {
				t.Fatalf("accepted an entry for key %q under key %q", ent.Key, fuzzEntryKey)
			}
			var out bytes.Buffer
			if err := snap.Save(&out); err != nil {
				t.Fatalf("decoded snapshot does not re-save: %v", err)
			}
			tail := in[entryFrame+binary.LittleEndian.Uint64(in):]
			if !bytes.Equal(out.Bytes(), tail) {
				t.Fatalf("decoded snapshot re-saves to %d different bytes (read %d)", out.Len(), len(tail))
			}
		}
	})
}

// withHeaderChecksum returns a copy of a spill file with its header
// checksum recomputed, or the file itself when its frame is too short
// or claims more bytes than it holds.
func withHeaderChecksum(data []byte) []byte {
	if len(data) < entryFrame {
		return data
	}
	n := binary.LittleEndian.Uint64(data)
	if n > uint64(len(data)-entryFrame) {
		return data
	}
	out := append([]byte(nil), data...)
	sum := sha256.Sum256(out[entryFrame : entryFrame+n])
	copy(out[8:entryFrame], sum[:])
	return out
}

// TestDecodeEntryCorpus checks that FuzzDecodeEntry's seed corpus still
// means what its file names say: "valid" decodes under fuzzEntryKey,
// and the truncations and the entry filed under another key are
// refused. A change to the spill or snapshot format makes "valid"
// stale; regenerate the corpus with
//
//	go test ./internal/fleet -run TestDecodeEntryCorpus -update-corpus
func TestDecodeEntryCorpus(t *testing.T) {
	if *updateCorpus {
		writeDecodeEntryCorpus(t)
	}
	files, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var valid bool
	for _, fe := range files {
		data := readCorpusFile(t, filepath.Join(corpusDir, fe.Name()))
		_, _, err := decodeEntry(data, fuzzEntryKey)
		switch name := fe.Name(); {
		case name == "valid":
			valid = true
			if err != nil {
				t.Fatalf("seed %q no longer decodes (%v); regenerate it with -update-corpus", name, err)
			}
		case name == "wrong-key":
			if err == nil || !strings.Contains(err.Error(), "filed under key") {
				t.Fatalf("seed %q: got %v, want a key mismatch", name, err)
			}
		case strings.HasPrefix(name, "truncated-"):
			if err == nil {
				t.Fatalf("seed %q decoded", name)
			}
		default:
			t.Fatalf("unexpected seed %q", name)
		}
	}
	if !valid {
		t.Fatal("corpus has no valid seed")
	}
}

// writeDecodeEntryCorpus spills one small characterization under
// fuzzEntryKey and under another key through the cache's own writer,
// and files the first, its truncations and the second as seeds.
func writeDecodeEntryCorpus(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 41
	opts.Mem = dram.Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 1 << 28, DeviceGb: 2, TempC: 45}
	eco, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eco.PreDeployment(); err != nil {
		t.Fatal(err)
	}
	// A seed needs to be valid, not realistic: trim the weak cells and
	// the object inventory, which are most of a snapshot's bytes.
	for _, dom := range eco.Mem.Domains {
		for _, d := range dom.DIMMs {
			d.Retain(func(i int, _ bool) bool { return i < 24 })
		}
	}
	objs := eco.Hypervisor.Objects()
	objs.Objects = objs.Objects[:32]
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCharactCache()
	if err := cache.AttachDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	spill := func(key string) []byte {
		cache.spillDisk(key, snap, []byte(`{"log":"line"}`+"\n"))
		if err := cache.DiskErr(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(cache.entryPath(key))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	valid := spill(fuzzEntryKey)
	head := entryFrame + int(binary.LittleEndian.Uint64(valid))
	seeds := map[string][]byte{"valid": valid, "wrong-key": spill("fuzz/other")}
	// The snapshot behind the entry head: a frame of version, payload
	// length and sha256, then the gob head's length and the gob head,
	// then the memory image's columns — tail uniforms, VRT index and
	// the telegraph bitset, each behind its count. Each truncation is
	// named by what it cuts, so a layout change keeps the seed names.
	cols := head + 8 + 8 + sha256.Size + 8 + int(binary.LittleEndian.Uint64(valid[head+8+8+sha256.Size:]))
	n := int(binary.LittleEndian.Uint64(valid[cols:]))
	index := cols + 8 + 8*n
	bitset := index + 8 + 8*int(binary.LittleEndian.Uint64(valid[index:]))
	for name, cut := range map[string]int{
		"empty":        0,
		"in-frame":     7,
		"frame":        entryFrame,
		"past-frame":   entryFrame + 1,
		"mid-head":     (entryFrame + head) / 2,
		"head":         head,
		"columns":      cols,
		"mid-uniforms": cols + 8 + 4*n,
		"vrt-index":    index,
		"bitset":       bitset,
		"last-byte":    len(valid) - 1,
	} {
		seeds["truncated-"+name] = valid[:cut]
	}
	if err := os.RemoveAll(corpusDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readCorpusFile reads one seed in go test's corpus encoding, as
// writeDecodeEntryCorpus writes it: a version line, then one []byte
// literal.
func readCorpusFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a go test fuzz v1 []byte seed", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
