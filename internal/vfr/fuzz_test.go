package vfr

import (
	"bytes"
	"testing"
)

// FuzzLoad feeds Load arbitrary bytes where a saved EOP table lives —
// the format every snapshot head's table and margin history pass
// through. Load must never panic, and a table it accepts must reach a
// fixed point: its Save loads back to a table that saves to the same
// bytes. The seed corpus (testdata/fuzz/FuzzLoad) holds a saved table,
// a truncated one, one with another version and one with an empty
// component name.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := tab.Save(&first); err != nil {
			t.Fatalf("accepted table does not save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved table does not load back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("reloaded table does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save → load → save moved bytes:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
