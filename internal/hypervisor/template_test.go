package hypervisor

import (
	"bytes"
	"reflect"
	"testing"

	"uniserver/internal/rng"
	"uniserver/internal/telemetry"
)

// TestStampSharesObjectsUntilProtect pins the copy-on-write contract of
// a stamped inventory (ObjectMap.share, the stamp's copy from an
// image): the copy aliases the source objects until Protect or
// ProtectObjects first writes it, the write lands only in the copy and
// matches what it does to a second fabrication from the same seed,
// and a later stamp shares again while keeping the private buffer for
// the next write.
func TestStampSharesObjectsUntilProtect(t *testing.T) {
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
			om.share(src.Objects, src.profiles)
			if !om.shared || &om.Objects[0] != &src.Objects[0] {
				t.Fatal("share did not alias the source inventory")
			}
			ref := NewObjectMap(DefaultProfiles(), rng.New(5))
			if got, want := w.do(om), w.do(ref); got != want || got == 0 {
				t.Fatalf("%s covered %d objects on the copy, %d on a fresh fabrication", w.name, got, want)
			}
			if om.shared || &om.Objects[0] == &src.Objects[0] {
				t.Fatalf("%s left the copy aliasing the source", w.name)
			}
			if !reflect.DeepEqual(om.Objects, ref.Objects) {
				t.Fatalf("%s on the copy differs from %s on a fresh fabrication", w.name, w.name)
			}
			if !reflect.DeepEqual(src.Objects, pristine) {
				t.Fatalf("%s wrote through to the source inventory", w.name)
			}

			private := &om.Objects[0]
			om.share(src.Objects, src.profiles)
			if !om.shared || &om.Objects[0] != &src.Objects[0] {
				t.Fatal("re-stamp after unshare does not share the source")
			}
			if &om.spare[:1][0] != private {
				t.Fatal("re-stamp dropped the copy's private buffer")
			}
		})
	}
	om := &ObjectMap{}
	om.share(src.Objects, src.profiles)
	om.Protect(CatNet)
	allocs := testing.AllocsPerRun(20, func() {
		om.share(src.Objects, src.profiles)
		om.ProtectObjects([]int{1, 2, 3})
	})
	if allocs != 0 {
		t.Fatalf("warm share + copy-on-write allocates %.0f times, want 0", allocs)
	}
}

// TestImageStampRoundTrip: a hypervisor stamped from an image — into
// a zero Hypervisor, on a second fabrication of the same memory — has
// the source's inventory, placements, isolation, error counts and
// counters, and the image holds nothing the source can still write.
// A host with guests is refused.
func TestImageStampRoundTrip(t *testing.T) {
	src := testHypervisor(t, 3)
	src.Objects().Protect(CatFS)
	if err := src.IsolateCore(1); err != nil {
		t.Fatal(err)
	}
	src.HandleError(telemetry.ErrorEvent{Kind: telemetry.ErrCorrectable, Component: "core2", Count: 1}, "", -1,
		func(string) int { return 2 })
	img, err := src.Image()
	if err != nil {
		t.Fatal(err)
	}
	var h Hypervisor
	mem := testMem(t, 3)
	if err := h.StampFrom(&img, mem); err != nil {
		t.Fatal(err)
	}
	src.Objects().Protect(CatNet) // the image must not see this
	if !reflect.DeepEqual(h.IsolatedCores(), []int{1}) || h.Stats() != img.Stats || h.Point() != img.Point {
		t.Fatalf("stamped isolation/counters/point differ: %v %+v %v", h.IsolatedCores(), h.Stats(), h.Point())
	}
	if h.errorCounts["core2"] != 1 || h.Objects().ProtectedBytes() == src.Objects().ProtectedBytes() {
		t.Fatal("stamped error counts or inventory differ from the image")
	}
	for i, dom := range mem.Domains {
		if got, want := h.Allocator().UsedBytes(dom), src.Allocator().UsedBytes(src.mem.Domains[i]); got != want {
			t.Fatalf("domain %d: %d bytes placed, source has %d", i, got, want)
		}
	}
	if err := src.StartVM(vmSpec("vm1", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Image(); err == nil {
		t.Fatal("imaged a host with guests")
	}
}

// TestImageColumnsRoundTrip: the object column decodes into the same
// inventory and re-encodes to the same bytes, and a column the head's
// profiles cannot name, or that is cut short, is refused.
func TestImageColumnsRoundTrip(t *testing.T) {
	src := testHypervisor(t, 3)
	src.Objects().Protect(CatFS)
	img, err := src.Image()
	if err != nil {
		t.Fatal(err)
	}
	b, err := img.AppendColumns(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != img.ColumnsLen() {
		t.Fatalf("AppendColumns wrote %d bytes, ColumnsLen says %d", len(b), img.ColumnsLen())
	}
	decode := func(b []byte) (Image, error) {
		got := img
		got.objects = nil
		rest, err := got.DecodeColumns(b)
		if err == nil && len(rest) != 0 {
			t.Fatalf("%d bytes left after the column", len(rest))
		}
		return got, err
	}
	got, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, img) {
		t.Fatal("image changed across the round trip")
	}
	if again, _ := got.AppendColumns(nil); !bytes.Equal(again, b) {
		t.Fatal("decoded image re-encodes to different bytes")
	}

	last := 8 + objectRecord*(len(img.objects)-1) // the last record
	breaks := map[string]func(b []byte) []byte{
		"truncated":        func(b []byte) []byte { return b[:len(b)-1] },
		"no column":        func(b []byte) []byte { return b[:7] },
		"count":            func(b []byte) []byte { b[0]++; return b },
		"unknown category": func(b []byte) []byte { b[last+8] = byte(len(img.Profiles)); return b },
		"unknown flags":    func(b []byte) []byte { b[last+17] |= 0x80; return b },
	}
	for name, brk := range breaks {
		if _, err := decode(brk(bytes.Clone(b))); err == nil {
			t.Errorf("%s: broken column accepted", name)
		}
	}
	// A profile that repeats an earlier category's name is never the
	// one a record names: the first is.
	img.Profiles = append(img.Profiles, img.Profiles[0])
	dup := bytes.Clone(b)
	dup[last+8] = byte(len(img.Profiles) - 1)
	if _, err := decode(dup); err == nil {
		t.Error("a record naming a repeated profile was accepted")
	}
}
