package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"uniserver/internal/core"
)

// The on-disk spill of the characterization snapshot cache: a cache
// with an attached directory persists every characterized snapshot
// (plus its report and captured health-log bytes) as one versioned
// gob file, and serves later processes — CLI reruns, CI legs — from
// disk instead of re-running the campaign. Correctness rests on the
// same property as the in-memory cache: characterization is a pure
// function of the key, and core's snapshot wire format restores
// bit-identical ecosystems (pinned by core's TestSnapshotDiskRoundTrip
// and the fleet-level disk byte-identity test).

// charactDirVersionFile names the directory's version stamp.
const charactDirVersionFile = "VERSION"

// AttachDir enables the on-disk spill rooted at dir, creating it if
// needed. The directory is stamped with core.SnapshotFormatVersion;
// attaching to a directory stamped with any other version is refused
// — the wire form mirrors simulator internals, so a cross-version
// read would corrupt results rather than merely miss. Point different
// builds at different directories (or clear the stale one).
//
// Any number of caches, in this process or others, may attach one
// fresh directory at once: the stamp is written to a temp file and
// renamed into place, so a reader sees either no stamp or a whole
// one, and every attacher re-reads the stamp that won. An empty stamp
// — left by a writer that truncated it in place and has not written
// yet, or died doing so — counts as missing: the attacher stamps the
// directory itself and reads again.
func (c *CharactCache) AttachDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: creating characterization cache dir: %w", err)
	}
	vpath := filepath.Join(dir, charactDirVersionFile)
	want := strconv.Itoa(core.SnapshotFormatVersion)
	const attempts = 8
	for i := 0; i < attempts; i++ {
		data, err := os.ReadFile(vpath)
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("fleet: reading characterization cache version: %w", err)
		}
		if got := strings.TrimSpace(string(data)); got != "" {
			if got != want {
				return fmt.Errorf("fleet: characterization cache dir %s is version %s, this build writes version %s; refusing mismatched versions (clear the dir or use another)",
					dir, got, want)
			}
			c.dir.Store(dir)
			return nil
		}
		if err := stampVersion(dir, vpath, want); err != nil {
			return fmt.Errorf("fleet: stamping characterization cache dir: %w", err)
		}
	}
	return fmt.Errorf("fleet: characterization cache dir %s: version stamp still empty after %d attempts", dir, attempts)
}

// stampVersion atomically replaces the directory's version stamp.
func stampVersion(dir, vpath, version string) error {
	tmp, err := os.CreateTemp(dir, ".version-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.WriteString(version + "\n"); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), vpath)
}

// diskEntryState is one spilled cache entry: the key (verified on
// load — the filename is only its hash), the core snapshot wire
// bytes, the characterization report, and the captured health-log
// bytes consumers replay.
type diskEntryState struct {
	Key      string
	Snapshot []byte
	Pre      core.PreDeploymentReport
	Log      []byte
}

// spillDir returns the attached spill directory ("" when disabled).
// The atomic load keeps worker goroutines and a late AttachDir from
// racing without putting a lock on the characterization path.
func (c *CharactCache) spillDir() string {
	if d, ok := c.dir.Load().(string); ok {
		return d
	}
	return ""
}

// entryPath maps a cache key to its spill file.
func (c *CharactCache) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.spillDir(), hex.EncodeToString(sum[:])+".charact")
}

// loadDisk tries to serve key from the spill directory. A missing or
// unreadable entry is a plain miss (the characterization recomputes
// and overwrites it); only the version stamp refuses loudly, and that
// happens at AttachDir.
func (c *CharactCache) loadDisk(key string) (*core.Snapshot, core.PreDeploymentReport, []byte, bool) {
	f, err := os.Open(c.entryPath(key))
	if err != nil {
		return nil, core.PreDeploymentReport{}, nil, false
	}
	defer f.Close()
	var st diskEntryState
	if err := gob.NewDecoder(f).Decode(&st); err != nil || st.Key != key {
		return nil, core.PreDeploymentReport{}, nil, false
	}
	snap, err := core.LoadSnapshot(bytes.NewReader(st.Snapshot))
	if err != nil {
		return nil, core.PreDeploymentReport{}, nil, false
	}
	return snap, st.Pre, st.Log, true
}

// spillDisk persists an entry, atomically (temp file + rename), so
// concurrent processes sharing the directory never observe a torn
// write. Spill failures never fail the simulation — the in-memory
// result is already correct — but the first one is retained for the
// caller to surface (DiskErr).
func (c *CharactCache) spillDisk(key string, snap *core.Snapshot, pre core.PreDeploymentReport, log []byte) {
	var sb bytes.Buffer
	if err := snap.Save(&sb); err != nil {
		c.noteDiskErr(err)
		return
	}
	st := diskEntryState{Key: key, Snapshot: sb.Bytes(), Pre: pre, Log: log}
	final := c.entryPath(key)
	tmp, err := os.CreateTemp(c.spillDir(), ".charact-*")
	if err != nil {
		c.noteDiskErr(err)
		return
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(&st); err != nil {
		tmp.Close()
		c.noteDiskErr(err)
		return
	}
	if err := tmp.Close(); err != nil {
		c.noteDiskErr(err)
		return
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		c.noteDiskErr(err)
	}
}

// noteDiskErr retains the first spill failure.
func (c *CharactCache) noteDiskErr(err error) {
	c.diskErrMu.Lock()
	defer c.diskErrMu.Unlock()
	if c.diskErr == nil {
		c.diskErr = err
	}
}

// DiskErr returns the first disk-spill failure, if any. Spills are
// best effort — results are unaffected — but a CLI should tell the
// operator their cache directory is not accumulating.
func (c *CharactCache) DiskErr() error {
	c.diskErrMu.Lock()
	defer c.diskErrMu.Unlock()
	return c.diskErr
}
