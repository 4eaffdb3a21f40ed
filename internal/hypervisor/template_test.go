package hypervisor

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"uniserver/internal/rng"
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
// the source's configuration, inventory, placements and point, and
// the image holds nothing the source can still write: it aliases the
// source's inventory until the source's next Protect copies it
// (ObjectMap.lend), and neither it nor its stamp sees that write.
// Imaging allocates nothing per object. A re-stamp clears the runtime
// error state the stamped host gathered. A host with guests, masked
// errors or an isolated core is refused.
func TestImageStampRoundTrip(t *testing.T) {
	src := testHypervisor(t, 3)
	src.Objects().Protect(CatFS)
	img, err := src.Image()
	if err != nil {
		t.Fatal(err)
	}
	if &img.objects[0] != &src.Objects().Objects[0] || cap(img.objects) != len(img.objects) {
		t.Fatal("the image copied the inventory instead of aliasing it capacity-clamped")
	}
	pristine := slices.Clone(img.objects)
	var h Hypervisor
	mem := testMem(t, 3)
	if err := h.StampFrom(&img, src.cfg, mem); err != nil {
		t.Fatal(err)
	}
	if src.Objects().Protect(CatNet) == 0 { // the image must not see this
		t.Fatal("protecting net covered nothing")
	}
	if &img.objects[0] == &src.Objects().Objects[0] {
		t.Fatal("Protect wrote through to the image's inventory")
	}
	if !reflect.DeepEqual(img.objects, pristine) || !reflect.DeepEqual(h.Objects().Objects, pristine) {
		t.Fatal("protecting the source changed the image or its stamp")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := src.Image(); err != nil {
			t.Fatal(err)
		}
	}); allocs > imageAllocs {
		t.Fatalf("Image allocates %.0f times, budget %d", allocs, imageAllocs)
	}
	if h.cfg != src.cfg || h.Point() != img.Point || h.Objects().ProtectedBytes() == src.Objects().ProtectedBytes() {
		t.Fatalf("stamped config, point or inventory differ: %+v %v", h.cfg, h.Point())
	}
	if got, want := h.Allocator().Image(), src.Allocator().Image(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stamped placements differ: %+v, source has %+v", got, want)
	}

	h.MaskCorrectable(1, h.cfg.IsolationThreshold)
	if err := h.StampFrom(&img, src.cfg, mem); err != nil {
		t.Fatal(err)
	}
	if h.Stats() != (Stats{}) || len(h.isolatedCores) != 0 || len(h.errorCounts) != 0 {
		t.Fatalf("re-stamp kept runtime error state: %+v, isolated %v, counts %v", h.Stats(), h.isolatedCores, h.errorCounts)
	}

	refusals := map[string]func(h *Hypervisor){
		"guest":         func(h *Hypervisor) { _ = h.StartVM(vmSpec("vm1", 2)) },
		"masked error":  func(h *Hypervisor) { h.MaskCorrectable(-1, 1) },
		"isolated core": func(h *Hypervisor) { _ = h.IsolateCore(1) },
	}
	for name, do := range refusals {
		h := testHypervisor(t, 3)
		do(h)
		if _, err := h.Image(); err == nil {
			t.Errorf("imaged a host with a %s", name)
		}
	}
}

// imageAllocs bounds Image's allocations: its profiles and placements,
// and no copy of the object inventory.
const imageAllocs = 2

// TestImageColumnsRoundTrip: the object column decodes into the same
// inventory and re-encodes to the same bytes, and a column the head's
// profiles cannot name, whose IDs are not positions, or that is cut
// short, is refused.
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
		"ID not position":  func(b []byte) []byte { b[last]++; return b },
		"swapped IDs": func(b []byte) []byte {
			b[8], b[8+objectRecord] = b[8+objectRecord], b[8]
			return b
		},
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
