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
const SnapshotFormatVersion = 6

// snapshotHeader is the frame in front of the encoded images: the
// format version and the payload length as little-endian uint64s,
// then the payload's sha256.
const snapshotHeader = 8 + 8 + sha256.Size

// headRoom is the room Save reserves for the gob head, which is tens
// of kilobytes; a larger head only costs Save a copy.
const headRoom = 64 << 10

// Save writes the snapshot's images: the format version, the payload
// length and the payload's sha256, then the payload — the gob head's
// length as a little-endian uint64, the gob-encoded images without
// their bulk slabs, and the slabs as fixed-width columns, the memory
// image's (dram.FlatMemory.AppendColumns) then the hypervisor's
// (hypervisor.Image.AppendColumns). Only pre-deployment
// characterization snapshots are writable — the checkpoint the on-disk
// cache spills, before any mode is entered or window run.
func (s *Snapshot) Save(w io.Writer) error {
	if err := s.img.persistable(); err != nil {
		return err
	}
	b, err := s.img.encode()
	if err == nil {
		_, err = w.Write(frame(b))
	}
	return err
}

// encode returns the payload behind room for the header.
func (img *images) encode() ([]byte, error) {
	size := snapshotHeader + 8 + headRoom + img.Mem.ColumnsLen() + img.Hyp.ColumnsLen()
	b, err := img.appendHead(make([]byte, snapshotHeader+8, size))
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(b[snapshotHeader:], uint64(len(b)-snapshotHeader-8))
	b = img.Mem.AppendColumns(b)
	if b, err = img.Hyp.AppendColumns(b); err != nil {
		return nil, fmt.Errorf("core: encoding snapshot hypervisor image: %w", err)
	}
	return b, nil
}

// persistable refuses the images Save does not write.
func (img *images) persistable() error {
	switch {
	case img.WindowsRun > 0:
		return fmt.Errorf("core: refusing to serialize a mid-life snapshot (%d windows run); only pre-deployment characterization snapshots persist", img.WindowsRun)
	case img.Mode != vfr.ModeNominal:
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
	if _, err := (&images{}).appendHead(nil); err != nil {
		panic(err)
	}
}

// appendHead appends the gob head — the images without the slabs gob
// does not see — to b.
func (img *images) appendHead(b []byte) ([]byte, error) {
	buf := bytes.NewBuffer(b)
	if err := gob.NewEncoder(buf).Encode(img); err != nil {
		return nil, fmt.Errorf("core: encoding snapshot images: %w", err)
	}
	return buf.Bytes(), nil
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
// snapshot Save would refuse, a head that is not the images' canonical
// encoding, or bytes after the columns. What it returns is the images
// themselves — stamps from a loaded snapshot are bit-identical to
// stamps from the one that was saved.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	var hdr [snapshotHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: reading snapshot header: %w", err)
	}
	if v := binary.LittleEndian.Uint64(hdr[0:]); v != SnapshotFormatVersion {
		return nil, fmt.Errorf("core: snapshot format version %d does not match this build's %d; refusing to load",
			v, SnapshotFormatVersion)
	}
	payload, err := readPayload(r, binary.LittleEndian.Uint64(hdr[8:]))
	if err != nil {
		return nil, err
	}
	if sha256.Sum256(payload) != [sha256.Size]byte(hdr[16:]) {
		return nil, errors.New("core: snapshot checksum mismatch")
	}
	s := &Snapshot{}
	if err := s.img.decode(payload); err != nil {
		return nil, err
	}
	s.derive()
	return s, nil
}

// readPayload reads the n payload bytes that follow the header. A
// reader that reports its remaining length (a *bytes.Reader) is read
// into one allocation of exactly n bytes, once it holds them; any
// other grows a buffer from a presize no larger than a corrupt header
// could make a short input allocate.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	var payload []byte
	if lr, ok := r.(interface{ Len() int }); ok {
		if left := uint64(lr.Len()); left < n {
			return nil, fmt.Errorf("core: snapshot truncated: %d of %d payload bytes", left, n)
		}
		payload = make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("core: reading snapshot images: %w", err)
		}
		return payload, nil
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(n, 1<<20)))
	if _, err := io.CopyN(buf, r, int64(min(n, 1<<62))); err != nil && err != io.EOF {
		return nil, fmt.Errorf("core: reading snapshot images: %w", err)
	}
	if payload = buf.Bytes(); uint64(len(payload)) != n {
		return nil, fmt.Errorf("core: snapshot truncated: %d of %d payload bytes", len(payload), n)
	}
	return payload, nil
}

// decode reads a payload Save wrote into img and refuses it unless it
// is exactly what Save writes for the images it holds.
func (img *images) decode(p []byte) error {
	if len(p) < 8 || binary.LittleEndian.Uint64(p) > uint64(len(p)-8) {
		return fmt.Errorf("core: snapshot head overruns its %d-byte payload", len(p))
	}
	n := 8 + binary.LittleEndian.Uint64(p)
	head, cols := p[8:n], p[n:]
	if err := gob.NewDecoder(bytes.NewReader(head)).Decode(img); err != nil {
		return fmt.Errorf("core: decoding snapshot images: %w", err)
	}
	cols, err := img.Mem.DecodeColumns(cols)
	if err != nil {
		return fmt.Errorf("core: snapshot memory image: %w", err)
	}
	if cols, err = img.Hyp.DecodeColumns(cols); err != nil {
		return fmt.Errorf("core: snapshot hypervisor image: %w", err)
	}
	if len(cols) != 0 {
		return fmt.Errorf("core: %d bytes after the snapshot columns", len(cols))
	}
	if err := img.validate(); err != nil {
		return err
	}
	img.Health.Expand()
	if err := img.persistable(); err != nil {
		return err
	}
	// gob ignores fields it does not know, accepts redundant encodings
	// and stops before trailing bytes; only the canonical head re-saves
	// identically. The columns have one encoding per value.
	if canon, err := img.appendHead(make([]byte, 0, len(head))); err != nil || !bytes.Equal(canon, head) {
		return errors.New("core: snapshot images are not in canonical encoding")
	}
	return nil
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
