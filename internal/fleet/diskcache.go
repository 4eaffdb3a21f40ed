package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"uniserver/internal/atomicfile"
	"uniserver/internal/core"
)

// The on-disk spill of the characterization snapshot cache: a cache
// with an attached directory persists every characterized snapshot
// (plus its captured health-log bytes) as one file, and
// serves later processes — CLI reruns, CI legs — from disk instead of
// re-running the campaign, byte-identically (a loaded snapshot is the
// saved images). Every part of a file is length-framed and
// checksummed; a file that fails any check is moved to quarantine/ and
// its key re-characterized, so a flipped bit never reaches a node.

// charactDirVersionFile names the directory's version stamp.
const charactDirVersionFile = "VERSION"

// AttachDir enables the on-disk spill rooted at dir, creating it if
// needed. The directory is stamped with core.SnapshotFormatVersion;
// attaching to a directory stamped with any other version is refused
// — snapshot images mirror simulator internals, so a cross-version
// read would corrupt results rather than merely miss. Point different
// builds at different directories (or clear the stale one).
//
// Any number of caches, in this process or others, may attach one
// fresh directory at once (see atomicfile.Stamp).
func (c *CharactCache) AttachDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: creating characterization cache dir: %w", err)
	}
	if err := atomicfile.Stamp(filepath.Join(dir, charactDirVersionFile), strconv.Itoa(core.SnapshotFormatVersion)); err != nil {
		return fmt.Errorf("fleet: characterization cache dir: %w", err)
	}
	c.dir.Store(dir)
	return nil
}

// diskEntry is the header of one spill file: the key (the filename is
// only its hash) and the captured health-log bytes. The file holds its
// gob payload's length and sha256, the payload, then the snapshot as
// core.Snapshot.Save frames it.
type diskEntry struct {
	Key string
	Log []byte
}

// entryFrame is the size of the header frame: the payload length as a
// little-endian uint64, then the payload's sha256.
const entryFrame = 8 + sha256.Size

// quarantineDir names the subdirectory corrupt spill files move to.
const quarantineDir = "quarantine"

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
// unreadable file is a plain miss (the characterization recomputes and
// overwrites it); a file that reads but fails a length, checksum, key
// or snapshot check is quarantined first, and the failure is kept for
// DiskErr. Only the version stamp refuses loudly, and that happens at
// AttachDir.
func (c *CharactCache) loadDisk(key string) (*core.Snapshot, []byte, bool) {
	path := c.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false
	}
	snap, ent, err := decodeEntry(data, key)
	if err != nil {
		c.quarantine(path, err)
		return nil, nil, false
	}
	return snap, ent.Log, true
}

// decodeEntry checks and decodes one spill file filed under key.
func decodeEntry(data []byte, key string) (*core.Snapshot, diskEntry, error) {
	var ent diskEntry
	if len(data) < entryFrame {
		return nil, ent, fmt.Errorf("%d-byte file is shorter than its header frame", len(data))
	}
	body := data[entryFrame:]
	n := binary.LittleEndian.Uint64(data)
	if n > uint64(len(body)) {
		return nil, ent, fmt.Errorf("header claims %d bytes, %d present", n, len(body))
	}
	if sha256.Sum256(body[:n]) != [sha256.Size]byte(data[8:entryFrame]) {
		return nil, ent, errors.New("header checksum mismatch")
	}
	if err := gob.NewDecoder(bytes.NewReader(body[:n])).Decode(&ent); err != nil {
		return nil, ent, fmt.Errorf("decoding header: %w", err)
	}
	if ent.Key != key {
		return nil, ent, fmt.Errorf("entry for key %q filed under key %q", ent.Key, key)
	}
	r := bytes.NewReader(body[n:])
	snap, err := core.LoadSnapshot(r)
	if err != nil {
		return nil, ent, err
	}
	if r.Len() != 0 {
		return nil, ent, fmt.Errorf("%d bytes after the snapshot", r.Len())
	}
	return snap, ent, nil
}

// quarantine moves a corrupt spill file aside into quarantine/ (or
// removes it, if even that fails, so the re-characterization's spill
// can land) and keeps the first such failure for DiskErr.
func (c *CharactCache) quarantine(path string, cause error) {
	dst := filepath.Join(c.spillDir(), quarantineDir, filepath.Base(path))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil || os.Rename(path, dst) != nil {
		os.Remove(path)
	}
	c.noteDiskErr(fmt.Errorf("fleet: quarantined corrupt characterization spill %s: %w", filepath.Base(path), cause))
}

// spillDisk persists an entry atomically (atomicfile.Write), so concurrent
// processes sharing the directory never observe a torn write. Spill
// failures never fail the simulation — the in-memory result is already
// correct — but the first one is retained for the caller to surface
// (DiskErr).
func (c *CharactCache) spillDisk(key string, snap *core.Snapshot, log []byte) {
	var head bytes.Buffer
	head.Write(make([]byte, entryFrame))
	if err := gob.NewEncoder(&head).Encode(&diskEntry{Key: key, Log: log}); err != nil {
		c.noteDiskErr(err)
		return
	}
	b := head.Bytes()
	binary.LittleEndian.PutUint64(b, uint64(len(b)-entryFrame))
	sum := sha256.Sum256(b[entryFrame:])
	copy(b[8:], sum[:])
	err := atomicfile.Write(c.entryPath(key), func(w io.Writer) error {
		if _, err := w.Write(b); err != nil {
			return err
		}
		return snap.Save(w)
	})
	if err != nil {
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

// DiskErr returns the first disk-spill failure, if any — a spill that
// could not be written or a spill file quarantined as corrupt. Spills
// are best effort — results are unaffected — but a CLI should tell the
// operator their cache directory is not accumulating.
func (c *CharactCache) DiskErr() error {
	c.diskErrMu.Lock()
	defer c.diskErrMu.Unlock()
	return c.diskErr
}
