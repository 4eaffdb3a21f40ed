package hypervisor

import (
	"reflect"
	"testing"

	"uniserver/internal/rng"
)

// TestCopyFromSharesUntilProtect pins ObjectMap.CopyFrom's
// copy-on-write contract: the copy aliases the source inventory until
// Protect or ProtectObjects first writes it, the write lands only in
// the copy and matches what it does to a deep clone, and a later
// CopyFrom shares again while keeping the private buffer for the next
// write.
func TestCopyFromSharesUntilProtect(t *testing.T) {
	src := NewObjectMap(DefaultProfiles(), rng.New(5))
	pristine := append([]Object(nil), src.Objects...)
	writers := []struct {
		name string
		do   func(om *ObjectMap) int
	}{
		{"Protect", func(om *ObjectMap) int { return om.Protect(CatFS, CatKernel) }},
		{"ProtectObjects", func(om *ObjectMap) int { return om.ProtectObjects([]int{0, 17, 4000}) }},
	}
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			om := &ObjectMap{}
			om.CopyFrom(src)
			if !om.shared || &om.Objects[0] != &src.Objects[0] {
				t.Fatal("CopyFrom did not alias the source inventory")
			}
			ref := src.Clone()
			if got, want := w.do(om), w.do(ref); got != want || got == 0 {
				t.Fatalf("%s covered %d objects on the copy, %d on a clone", w.name, got, want)
			}
			if om.shared || &om.Objects[0] == &src.Objects[0] {
				t.Fatalf("%s left the copy aliasing the source", w.name)
			}
			if !reflect.DeepEqual(om.Objects, ref.Objects) {
				t.Fatalf("%s on the copy differs from %s on a clone", w.name, w.name)
			}
			if !reflect.DeepEqual(src.Objects, pristine) {
				t.Fatalf("%s wrote through to the source inventory", w.name)
			}

			private := &om.Objects[0]
			om.CopyFrom(src)
			if !om.shared || &om.Objects[0] != &src.Objects[0] {
				t.Fatal("re-stamp after unshare does not share the source")
			}
			if &om.spare[:1][0] != private {
				t.Fatal("re-stamp dropped the copy's private buffer")
			}
		})
	}
	om := &ObjectMap{}
	om.CopyFrom(src)
	om.Protect(CatNet)
	allocs := testing.AllocsPerRun(20, func() {
		om.CopyFrom(src)
		om.ProtectObjects([]int{1, 2, 3})
	})
	if allocs != 0 {
		t.Fatalf("warm CopyFrom + copy-on-write allocates %.0f times, want 0", allocs)
	}
	if c := om.Clone(); c.shared || &c.Objects[0] == &src.Objects[0] {
		t.Fatal("clone of a stamped inventory still aliases the source")
	}
}
