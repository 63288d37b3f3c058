package region

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAcquireResolveRoundTrip(t *testing.T) {
	a := New(128, 20)
	targets := []uint64{0x400000, 0x400004, 0x7fff12345678, 0, ^uint64(0)}
	for _, tgt := range targets {
		ref, off := a.Acquire(tgt)
		got, ok := a.Resolve(ref, off)
		if !ok {
			t.Fatalf("Resolve(%#x) not ok", tgt)
		}
		if got != tgt {
			t.Errorf("Resolve = %#x, want %#x", got, tgt)
		}
	}
}

func TestSameRegionShared(t *testing.T) {
	a := New(128, 20)
	r1, _ := a.Acquire(0x40_00000)
	r2, _ := a.Acquire(0x40_00004) // same high bits
	if r1 != r2 {
		t.Errorf("targets in the same region got refs %+v and %+v", r1, r2)
	}
}

func TestEvictionInvalidatesStaleRefs(t *testing.T) {
	a := New(2, 20)
	ref0, off0 := a.Acquire(0x1 << 20)
	ref1, off1 := a.Acquire(0x2 << 20)
	// Third distinct region evicts the LRU (region of ref0) and only it.
	ref2, off2 := a.Acquire(0x3 << 20)
	if _, ok := a.Resolve(ref0, off0); ok {
		t.Error("stale reference resolved after its region was evicted")
	}
	if got, ok := a.Resolve(ref1, off1); !ok || got != 0x2<<20 {
		t.Errorf("Resolve(ref1) = %#x/%v, want %#x/true", got, ok, 0x2<<20)
	}
	if got, ok := a.Resolve(ref2, off2); !ok || got != 0x3<<20 {
		t.Errorf("Resolve(ref2) = %#x/%v, want %#x/true", got, ok, 0x3<<20)
	}
}

func TestReacquireAfterEvictionGetsNewGen(t *testing.T) {
	a := New(1, 20)
	ref1, _ := a.Acquire(0x1 << 20)
	a.Acquire(0x2 << 20) // evicts region of ref1
	ref2, _ := a.Acquire(0x1 << 20)
	if ref1.Gen == ref2.Gen {
		t.Error("re-acquired region reuses the old generation")
	}
	if _, ok := a.Resolve(ref1, 0); ok {
		t.Error("old-generation reference still resolves")
	}
	if _, ok := a.Resolve(ref2, 0); !ok {
		t.Error("fresh reference fails to resolve")
	}
}

func TestTouchProtectsFromEviction(t *testing.T) {
	a := New(2, 20)
	ref1, _ := a.Acquire(0x1 << 20)
	a.Acquire(0x2 << 20)
	a.Touch(ref1) // region 1 is now most recent; region 2 is LRU
	a.Acquire(0x3 << 20)
	if _, ok := a.Resolve(ref1, 0); !ok {
		t.Error("touched region was evicted")
	}
}

func TestResolveMalformedRef(t *testing.T) {
	a := New(4, 20)
	if _, ok := a.Resolve(Ref{Index: -1}, 0); ok {
		t.Error("negative index resolved")
	}
	if _, ok := a.Resolve(Ref{Index: 99}, 0); ok {
		t.Error("out-of-range index resolved")
	}
	if _, ok := a.Resolve(Ref{Index: 0}, 0); ok {
		t.Error("never-allocated region resolved")
	}
}

func TestLookupDoesNotAllocate(t *testing.T) {
	a := New(4, 20)
	if _, _, ok := a.Lookup(0x123456789); ok {
		t.Error("Lookup hit on empty array")
	}
	a.Acquire(0x123456789)
	ref, off, ok := a.Lookup(0x123456789)
	if !ok {
		t.Fatal("Lookup missed after Acquire")
	}
	if got, ok := a.Resolve(ref, off); !ok || got != 0x123456789 {
		t.Errorf("Resolve(Lookup) = %#x/%v, want 0x123456789/true", got, ok)
	}
}

func TestResetInvalidatesEverything(t *testing.T) {
	a := New(8, 20)
	ref, off := a.Acquire(0xabc << 20)
	a.Reset()
	if _, ok := a.Resolve(ref, off); ok {
		t.Error("reference survived Reset")
	}
}

// TestResetRestoresNew churns a region array through evictions, so bases,
// generations and LRU stamps have all moved, and requires Reset to leave it
// deeply equal to a freshly constructed one.
func TestResetRestoresNew(t *testing.T) {
	a := New(8, 20)
	rng := rand.New(rand.NewSource(5))
	first, firstOff := a.Acquire(0x40 << 20)
	for i := 0; i < 200; i++ {
		ref, _ := a.Acquire(uint64(rng.Intn(32)) << 20)
		a.Touch(ref)
	}
	if _, ok := a.Resolve(first, firstOff); ok {
		t.Fatal("workload evicted nothing")
	}
	a.Reset()
	if !reflect.DeepEqual(a, New(8, 20)) {
		t.Error("Reset region array differs from a fresh one")
	}
}

func TestCompressionLosslessProperty(t *testing.T) {
	f := func(targets []uint64) bool {
		a := New(16, 20)
		for _, tgt := range targets {
			ref, off := a.Acquire(tgt)
			got, ok := a.Resolve(ref, off)
			if !ok || got != tgt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetWithinCapacityNeverEvicts(t *testing.T) {
	a := New(8, 20)
	rng := rand.New(rand.NewSource(2))
	bases := make([]uint64, 8)
	for i := range bases {
		bases[i] = uint64(i+1) << 20
	}
	refs := make([]Ref, len(bases))
	for i, b := range bases {
		refs[i], _ = a.Acquire(b)
	}
	for i := 0; i < 10000; i++ {
		tgt := bases[rng.Intn(len(bases))] | uint64(rng.Intn(1<<20))
		a.Acquire(tgt)
	}
	for i, ref := range refs {
		if got, ok := a.Resolve(ref, 0); !ok || got != bases[i] {
			t.Errorf("Resolve(region %d) = %#x/%v with working set <= capacity, want %#x/true", i, got, ok, bases[i])
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []struct {
		name            string
		entries, offset int
	}{
		{"zero entries", 0, 20},
		{"zero offset", 4, 0},
		{"offset 64", 4, 64},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			New(c.entries, c.offset)
		}()
	}
}
