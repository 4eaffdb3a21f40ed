package core

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzLoadSnapshot feeds LoadSnapshot arbitrary bytes, both as a whole
// file and as a payload framed with a matching length and checksum —
// the second form is how the fuzzer gets past the checksum to the gob
// head, the columns and the image validation behind them. LoadSnapshot
// must never panic, and whatever it accepts must re-save to exactly
// the bytes it read.
func FuzzLoadSnapshot(f *testing.F) {
	opts := smallOptions(41)
	opts.Mem.DIMMBytes = 1 << 28 // the least the hypervisor's own state fits in
	eco, err := New(opts)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := eco.PreDeployment(); err != nil {
		f.Fatal(err)
	}
	// A seed needs to be valid, not realistic: trim the weak cells and
	// the object inventory, which are most of a snapshot's bytes, so
	// the fuzzer mutates kilobytes instead of hundreds of them.
	for _, dom := range eco.Mem.Domains {
		for _, d := range dom.DIMMs {
			d.Weak = d.Weak[:min(len(d.Weak), 24)]
		}
	}
	eco.Mem.Reindex()
	objs := eco.Hypervisor.Objects()
	objs.Objects = objs.Objects[:32]
	snap, err := eco.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		f.Fatal(err)
	}
	saved := buf.Bytes()
	f.Add(saved)
	// The columns start behind the payload's head length and the head.
	cols := snapshotHeader + 8 + int(binary.LittleEndian.Uint64(saved[snapshotHeader:]))
	for _, n := range []int{0, 7, snapshotHeader, snapshotHeader + 1, (snapshotHeader + cols) / 2, cols, cols + 8, len(saved) - 1} {
		f.Add(saved[:n])
	}
	payload := saved[snapshotHeader:]
	f.Add(payload) // the raw payload: framed below with its own checksum
	// The payload's head and its columns, each cut short: the framed
	// form reaches the head's and the columns' refusals.
	f.Add(payload[:(8+cols-snapshotHeader)/2])
	f.Add(payload[:len(payload)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		framed := frame(append(make([]byte, snapshotHeader), data...))
		for _, in := range [][]byte{data, framed} {
			s, err := LoadSnapshot(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := s.Save(&out); err != nil {
				t.Fatalf("loaded snapshot does not re-save: %v", err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatalf("loaded snapshot re-saves to %d different bytes (read %d)", out.Len(), len(in))
			}
		}
	})
}
