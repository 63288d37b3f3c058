package btb

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Entries: 64, Assoc: 4, TagBits: 10, TargetBits: 44}
}

func TestLookupMissOnEmpty(t *testing.T) {
	b := New(small())
	if _, ok := b.Lookup(0x400000); ok {
		t.Error("hit on empty BTB")
	}
}

func TestUpdateThenLookup(t *testing.T) {
	b := New(small())
	b.Update(0x400000, 0xdead)
	tgt, ok := b.Lookup(0x400000)
	if !ok || tgt != 0xdead {
		t.Errorf("Lookup = %#x/%v, want 0xdead/true", tgt, ok)
	}
}

func TestLastTakenPolicy(t *testing.T) {
	b := New(small())
	b.Update(0x100, 0xA)
	b.Update(0x100, 0xB)
	if tgt, _ := b.Lookup(0x100); tgt != 0xB {
		t.Errorf("target = %#x, want 0xB (last taken)", tgt)
	}
}

func TestHysteresisNeedsTwoMisses(t *testing.T) {
	cfg := small()
	cfg.Hysteresis = true
	b := New(cfg)
	b.Update(0x100, 0xA)
	b.Update(0x100, 0xB) // first differing update: keep 0xA
	if tgt, _ := b.Lookup(0x100); tgt != 0xA {
		t.Fatalf("target = %#x after one miss, want 0xA", tgt)
	}
	b.Update(0x100, 0xB) // second consecutive: replace
	if tgt, _ := b.Lookup(0x100); tgt != 0xB {
		t.Errorf("target = %#x after two misses, want 0xB", tgt)
	}
}

func TestHysteresisResetByMatch(t *testing.T) {
	cfg := small()
	cfg.Hysteresis = true
	b := New(cfg)
	b.Update(0x100, 0xA)
	b.Update(0x100, 0xB) // miss #1
	b.Update(0x100, 0xA) // match resets the counter
	b.Update(0x100, 0xB) // miss #1 again: still keep 0xA
	if tgt, _ := b.Lookup(0x100); tgt != 0xA {
		t.Errorf("target = %#x, want 0xA (hysteresis counter should reset)", tgt)
	}
}

func TestAssociativityHoldsMultipleBranches(t *testing.T) {
	// With assoc 4 and enough capacity, several distinct PCs must coexist.
	b := New(Config{Entries: 256, Assoc: 4, TagBits: 12, TargetBits: 44})
	pcs := make([]uint64, 100)
	for i := range pcs {
		pcs[i] = uint64(0x400000 + i*4)
		b.Update(pcs[i], uint64(i))
	}
	hits := 0
	for i, pc := range pcs {
		if tgt, ok := b.Lookup(pc); ok && tgt == uint64(i) {
			hits++
		}
	}
	if hits < 90 {
		t.Errorf("only %d/100 distinct branches retained, want >= 90", hits)
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	b := New(Config{Entries: 8, Assoc: 1, TagBits: 8, TargetBits: 44})
	for i := 0; i < 1000; i++ {
		b.Update(uint64(i)*4096, uint64(i))
	}
	// Capacity 8 with 1000 distinct PCs: most must have been evicted; the
	// structure must simply stay consistent (no panic, bounded hits).
	found := 0
	for i := 0; i < 1000; i++ {
		if _, ok := b.Lookup(uint64(i) * 4096); ok {
			found++
		}
	}
	if found > 8+32 { // allow a few partial-tag false hits
		t.Errorf("found %d entries in an 8-entry BTB", found)
	}
}

func TestStorageBits(t *testing.T) {
	b := New(Default32K())
	// 32768 × (1 valid + 8 tag + 44 target + 0 lru) = 1736704 bits ≈ 212 KB
	// of raw modeling... the paper budgets the baseline BTB at 64 KB by
	// counting fewer target bits; here we only require internal consistency.
	want := 32768 * (1 + 8 + 44)
	if got := b.StorageBits(); got != want {
		t.Errorf("StorageBits = %d, want %d", got, want)
	}
	h := New(Config{Entries: 16, Assoc: 4, TagBits: 8, TargetBits: 44, Hysteresis: true})
	want = 16 * (1 + 8 + 44 + 1 + 2)
	if got := h.StorageBits(); got != want {
		t.Errorf("StorageBits (hysteresis, assoc 4) = %d, want %d", got, want)
	}
}

func TestResetClears(t *testing.T) {
	b := New(small())
	b.Update(0x100, 0xA)
	b.Reset()
	if _, ok := b.Lookup(0x100); ok {
		t.Error("entry survived Reset")
	}
}

// TestResetRestoresNew trains a BTB past capacity, so entries, LRU stamps,
// the clock and the hit counters have all moved, and requires Reset to
// leave it deeply equal to a freshly constructed one.
func TestResetRestoresNew(t *testing.T) {
	hyst := small()
	hyst.Hysteresis = true
	for _, cfg := range []Config{small(), hyst} {
		b := New(cfg)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 1000; i++ {
			pc := uint64(rng.Intn(256)) * 64
			b.Lookup(pc)
			b.Update(pc, uint64(rng.Intn(8)))
		}
		b.Reset()
		if !reflect.DeepEqual(b, New(cfg)) {
			t.Errorf("%+v: Reset BTB differs from a fresh one", cfg)
		}
	}
}

func TestDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		run := func() []uint64 {
			b := New(Config{Entries: 32, Assoc: 2, TagBits: 9, TargetBits: 44})
			rng := rand.New(rand.NewSource(seed))
			out := make([]uint64, 0, 200)
			for i := 0; i < 200; i++ {
				pc := uint64(rng.Intn(64)) * 512
				if rng.Intn(2) == 0 {
					b.Update(pc, rng.Uint64())
				} else {
					tgt, ok := b.Lookup(pc)
					if !ok {
						tgt = ^uint64(0)
					}
					out = append(out, tgt)
				}
			}
			return out
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{Entries: 0, Assoc: 1, TagBits: 8},
		{Entries: 16, Assoc: 0, TagBits: 8},
		{Entries: 10, Assoc: 4, TagBits: 8}, // not divisible
		{Entries: 16, Assoc: 4, TagBits: 0},
		{Entries: 16, Assoc: 4, TagBits: 40},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic for %+v", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}
