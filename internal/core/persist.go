package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"uniserver/internal/vfr"
)

// SnapshotFormatVersion identifies the on-disk snapshot encoding.
// Readers refuse any other version: the images mirror internal
// simulator state, so a silent cross-version read would corrupt
// results instead of failing loudly. Bump it whenever the images
// change shape or meaning.
const SnapshotFormatVersion = 2

// snapshotHeader is the frame in front of the encoded images: the
// format version and the payload length as little-endian uint64s,
// then the payload's sha256.
const snapshotHeader = 8 + 8 + sha256.Size

// Save writes the snapshot's images: the format version, the payload
// length and the payload's sha256, then the gob-encoded images.
// Only pre-deployment characterization snapshots are writable — the
// checkpoint the on-disk cache spills, before any mode is entered or
// window run.
func (s *Snapshot) Save(w io.Writer) error {
	if err := s.persistable(); err != nil {
		return err
	}
	b, err := s.img.encode(0)
	if err == nil {
		_, err = w.Write(frame(b))
	}
	return err
}

// persistable refuses the snapshots Save does not write.
func (s *Snapshot) persistable() error {
	switch {
	case s.img.WindowsRun > 0:
		return fmt.Errorf("core: refusing to serialize a mid-life snapshot (%d windows run); only pre-deployment characterization snapshots persist", s.img.WindowsRun)
	case s.img.Mode != vfr.ModeNominal:
		return errors.New("core: refusing to serialize a snapshot taken after mode entry; snapshot between PreDeployment and EnterMode")
	}
	return nil
}

// gob numbers types in the order a process first encodes them, and
// the numbers are part of the encoding. Encoding the images once at
// init, before anything in the process can encode a type they share
// (the fleet spill header holds a PreDeploymentReport), makes their
// encoding the same in every process — which LoadSnapshot's canonical
// check, and spill files shared between processes, rely on.
func init() {
	if _, err := (&images{}).encode(0); err != nil {
		panic(err)
	}
}

// encode returns the encoded images behind room for the header, in a
// buffer presized for size payload bytes when the size is known.
func (img *images) encode(size int) ([]byte, error) {
	b := bytes.NewBuffer(make([]byte, snapshotHeader, snapshotHeader+size))
	if err := gob.NewEncoder(b).Encode(img); err != nil {
		return nil, fmt.Errorf("core: encoding snapshot images: %w", err)
	}
	return b.Bytes(), nil
}

// frame fills the header reserved at the front of b for the payload
// that follows it.
func frame(b []byte) []byte {
	binary.LittleEndian.PutUint64(b[0:], SnapshotFormatVersion)
	binary.LittleEndian.PutUint64(b[8:], uint64(len(b)-snapshotHeader))
	sum := sha256.Sum256(b[snapshotHeader:])
	copy(b[16:], sum[:])
	return b
}

// LoadSnapshot reads exactly one snapshot written by Save from r. It
// checks the version, the length and the sha256 before it decodes,
// then refuses images that Save could not have written: extents
// outside their slabs, a core count that disagrees with the chip, a
// snapshot Save would refuse, or bytes that are not the images'
// canonical encoding. What it returns is the images themselves —
// stamps from a loaded snapshot are bit-identical to stamps from the
// one that was saved.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	var hdr [snapshotHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: reading snapshot header: %w", err)
	}
	if v := binary.LittleEndian.Uint64(hdr[0:]); v != SnapshotFormatVersion {
		return nil, fmt.Errorf("core: snapshot format version %d does not match this build's %d; refusing to load",
			v, SnapshotFormatVersion)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	// Presize for the claimed length, but no further than a corrupt
	// header could make a short input allocate.
	buf := bytes.NewBuffer(make([]byte, 0, min(n, 1<<20)))
	if _, err := io.CopyN(buf, r, int64(min(n, 1<<62))); err != nil && err != io.EOF {
		return nil, fmt.Errorf("core: reading snapshot images: %w", err)
	}
	payload := buf.Bytes()
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("core: snapshot truncated: %d of %d payload bytes", len(payload), n)
	}
	if sha256.Sum256(payload) != [sha256.Size]byte(hdr[16:]) {
		return nil, errors.New("core: snapshot checksum mismatch")
	}
	s := &Snapshot{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s.img); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot images: %w", err)
	}
	if err := s.img.validate(); err != nil {
		return nil, err
	}
	if err := s.persistable(); err != nil {
		return nil, err
	}
	// gob ignores fields it does not know, accepts redundant encodings
	// and stops before trailing bytes; only the canonical bytes re-save
	// identically.
	if canon, err := s.img.encode(len(payload)); err != nil || !bytes.Equal(canon[snapshotHeader:], payload) {
		return nil, errors.New("core: snapshot images are not in canonical encoding")
	}
	s.derive()
	return s, nil
}

// validate refuses decoded images a stamp could not use safely.
func (img *images) validate() error {
	if err := img.Mem.Validate(); err != nil {
		return fmt.Errorf("core: snapshot memory image: %w", err)
	}
	if err := img.Health.Validate(); err != nil {
		return fmt.Errorf("core: snapshot health image: %w", err)
	}
	if err := img.Hyp.Alloc.Validate(len(img.Mem.Domains)); err != nil {
		return fmt.Errorf("core: snapshot hypervisor image: %w", err)
	}
	if cores := len(img.Machine.Chip.Cores); cores == 0 || img.Opts.Part.Cores != cores {
		return fmt.Errorf("core: snapshot part has %d cores, its chip %d", img.Opts.Part.Cores, cores)
	}
	return nil
}
