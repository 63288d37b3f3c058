package ibtb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Sets: 4, Assoc: 8, TagBits: 10, RegionEntries: 16, OffsetBits: 20, RRIPBits: 2}
}

func TestEmptyHasNoCandidates(t *testing.T) {
	b := New(small())
	if got := b.Candidates(0x400000, nil); len(got) != 0 {
		t.Errorf("Candidates on empty IBTB = %v, want empty", got)
	}
}

func TestInsertThenCandidates(t *testing.T) {
	b := New(small())
	pc := uint64(0x400100)
	b.Insert(pc, 0x10000)
	b.Insert(pc, 0x20000)
	b.Insert(pc, 0x30000)
	got := b.Candidates(pc, nil)
	if len(got) != 3 {
		t.Fatalf("got %d candidates, want 3: %v", len(got), got)
	}
	want := map[uint64]bool{0x10000: true, 0x20000: true, 0x30000: true}
	for _, tgt := range got {
		if !want[tgt] {
			t.Errorf("unexpected candidate %#x", tgt)
		}
	}
}

func TestDuplicateInsertKeepsOneCopy(t *testing.T) {
	b := New(small())
	pc := uint64(0x400100)
	for i := 0; i < 100; i++ {
		b.Insert(pc, 0xABC0)
	}
	if got := b.Candidates(pc, nil); len(got) != 1 {
		t.Errorf("got %d candidates after repeated insert of one target, want 1", len(got))
	}
}

func TestContains(t *testing.T) {
	b := New(small())
	b.Insert(0x100, 0x5000)
	if !b.Contains(0x100, 0x5000) {
		t.Error("Contains missed an inserted pair")
	}
	if b.Contains(0x100, 0x6000) {
		t.Error("Contains hit an absent target")
	}
	if b.Contains(0x10044, 0x5000) {
		t.Error("Contains hit a different pc")
	}
}

func TestCapacityBound(t *testing.T) {
	cfg := small()
	b := New(cfg)
	pc := uint64(0x990)
	// Insert far more distinct targets than one set holds.
	for i := 0; i < 1000; i++ {
		b.Insert(pc, uint64(0x1000+i*16))
	}
	got := b.Candidates(pc, nil)
	if len(got) > cfg.Assoc {
		t.Errorf("got %d candidates, want <= assoc %d", len(got), cfg.Assoc)
	}
}

func TestRegionEvictionInvalidatesEntries(t *testing.T) {
	cfg := small()
	cfg.RegionEntries = 2
	b := New(cfg)
	pc := uint64(0x500)
	// Three targets in three distinct regions: region 0 gets evicted.
	b.Insert(pc, 0x1<<20)
	b.Insert(pc, 0x2<<20)
	b.Insert(pc, 0x3<<20)
	got := b.Candidates(pc, nil)
	if len(got) > 2 {
		t.Errorf("got %d candidates, want <= 2 after region eviction", len(got))
	}
	for _, tgt := range got {
		if tgt == 0x1<<20 {
			t.Error("candidate from evicted region survived")
		}
	}
}

func TestHotTargetSurvivesPressure(t *testing.T) {
	b := New(small())
	pc := uint64(0x700)
	hot := uint64(0xAAA00)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b.Insert(pc, hot) // every other insert re-references the hot target
		b.Insert(pc, uint64(0x1000+rng.Intn(500)*32))
	}
	if !b.Contains(pc, hot) {
		t.Error("frequently re-referenced target was evicted by RRIP")
	}
}

func TestSetsAreIndependent(t *testing.T) {
	b := New(small())
	// Distinct PCs should (almost always) land in different sets or at
	// least keep per-branch candidate isolation via tags.
	b.Insert(0x1000, 0xA0)
	b.Insert(0x2000, 0xB0)
	ca := b.Candidates(0x1000, nil)
	for _, tgt := range ca {
		if tgt == 0xB0 {
			t.Error("candidate leaked across branches with different tags")
		}
	}
}

func TestCandidatesAppendsToBuffer(t *testing.T) {
	b := New(small())
	b.Insert(0x100, 0x5000)
	buf := make([]uint64, 0, 8)
	got := b.Candidates(0x100, buf)
	if len(got) != 1 || got[0] != 0x5000 {
		t.Errorf("Candidates = %v, want [0x5000]", got)
	}
	// Reuse must not retain stale results.
	got = b.Candidates(0x999, got[:0])
	if len(got) != 0 {
		t.Errorf("Candidates for unknown pc = %v, want empty", got)
	}
}

func TestResetClears(t *testing.T) {
	b := New(small())
	b.Insert(0x100, 0x5000)
	b.Reset()
	if got := b.Candidates(0x100, nil); len(got) != 0 {
		t.Errorf("candidates after Reset = %v, want empty", got)
	}
}

func TestStorageBitsDefaultConfig(t *testing.T) {
	b := New(DefaultConfig())
	// 4096 × (1 + 8 + 7 + 20 + 2) = 155648 bits ≈ 19 KB, plus the region
	// array: 128 × (24 + 7) = 3968 bits.
	want := 4096*(1+8+7+20+2) + 128*(24+7)
	if got := b.StorageBits(); got != want {
		t.Errorf("StorageBits = %d, want %d", got, want)
	}
}

func TestNeverExceedsAssocProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		cfg := Config{Sets: 2, Assoc: 4, TagBits: 8, RegionEntries: 4, OffsetBits: 12, RRIPBits: 2}
		b := New(cfg)
		for _, op := range ops {
			pc := uint64(op % 64)
			tgt := uint64(op>>6) % 4096
			b.Insert(pc, tgt)
			if len(b.Candidates(pc, nil)) > cfg.Assoc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{Sets: 0, Assoc: 4, TagBits: 8, RegionEntries: 4, OffsetBits: 12, RRIPBits: 2},
		{Sets: 4, Assoc: 0, TagBits: 8, RegionEntries: 4, OffsetBits: 12, RRIPBits: 2},
		{Sets: 4, Assoc: 4, TagBits: 0, RegionEntries: 4, OffsetBits: 12, RRIPBits: 2},
		{Sets: 4, Assoc: 4, TagBits: 8, RegionEntries: 4, OffsetBits: 12, RRIPBits: 0},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

// TestDefaultConfigMatchesPaper holds DefaultConfig to the paper's IBTB
// configuration (§4.2, Table 2):
//
//	Sets           64    (power of two)
//	Assoc          64    (power of two)
//	TagBits        8
//	RegionEntries  128   (power of two)
//	OffsetBits     20
//	RRIPBits       2
//
// The power-of-two sizes are the ones indexed by mask.
func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	for _, f := range []struct {
		name      string
		got, want int
		pow2      bool
	}{
		{"Sets", c.Sets, 64, true},
		{"Assoc", c.Assoc, 64, true},
		{"TagBits", c.TagBits, 8, false},
		{"RegionEntries", c.RegionEntries, 128, true},
		{"OffsetBits", c.OffsetBits, 20, false},
		{"RRIPBits", c.RRIPBits, 2, false},
	} {
		if f.got != f.want {
			t.Errorf("DefaultConfig().%s = %d; the paper's Table 2 specifies %d", f.name, f.got, f.want)
		}
		if f.pow2 && f.got&(f.got-1) != 0 {
			t.Errorf("DefaultConfig().%s = %d is not a power of two; the structure cannot be indexed by mask", f.name, f.got)
		}
	}
}
