package ibtb

import (
	"math/rand"
	"testing"
)

func smallHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{Sets: 4, Assoc: 2, TagBits: 10, RegionEntries: 8, OffsetBits: 20, RRIPBits: 2},
		L2: Config{Sets: 8, Assoc: 8, TagBits: 10, RegionEntries: 16, OffsetBits: 20, RRIPBits: 2},
	}
}

func TestHierarchyBasicInsertLookup(t *testing.T) {
	h := NewHierarchy(smallHierarchy())
	h.Insert(0x100, 0x5000)
	got := h.Candidates(0x100, nil)
	if len(got) != 1 || got[0] != 0x5000 {
		t.Errorf("Candidates = %v, want [0x5000]", got)
	}
}

func TestHierarchyNoDuplicatesAcrossLevels(t *testing.T) {
	h := NewHierarchy(smallHierarchy())
	// Insert more targets than L1's associativity: the union path must not
	// return duplicates.
	pc := uint64(0x200)
	for i := 0; i < 6; i++ {
		h.Insert(pc, uint64(0x1000+i*0x100))
	}
	got := h.Candidates(pc, nil)
	seen := map[uint64]bool{}
	for _, tgt := range got {
		if seen[tgt] {
			t.Fatalf("duplicate candidate %#x in %v", tgt, got)
		}
		seen[tgt] = true
	}
	// L1 holds 2; the inclusive L2 (8-way) holds all 6.
	if len(got) < 5 {
		t.Errorf("got %d candidates, want >= 5 (L2 should backfill)", len(got))
	}
}

func TestHierarchyRarelyProbesL2OnHotMonomorphic(t *testing.T) {
	h := NewHierarchy(smallHierarchy())
	h.Insert(0x300, 0x7000)
	probes := 0
	for i := 0; i < 1000; i++ {
		if _, l2 := h.Lookup(0x300, nil); l2 {
			probes++
		}
	}
	if probes > 50 {
		t.Errorf("%d of 1000 lookups of a monomorphic hot branch probed L2, want near 0", probes)
	}
}

func TestHierarchyL2ProbeOnMiss(t *testing.T) {
	h := NewHierarchy(smallHierarchy())
	if _, l2 := h.Lookup(0x999, nil); !l2 { // cold: L1 empty -> L2 probed
		t.Errorf("cold lookup should probe L2")
	}
	// L1 holding fewer targets than its associativity answers alone; a
	// full L1 match set may be truncated, so L2 is probed again.
	h.Insert(0x999, 0x5000)
	if got, l2 := h.Lookup(0x999, nil); l2 || len(got) != 1 {
		t.Errorf("lookup with one L1 match: %v, probed L2 %v; want one candidate, no probe", got, l2)
	}
	h.Insert(0x999, 0x6000)
	if got, l2 := h.Lookup(0x999, nil); !l2 || len(got) != 2 {
		t.Errorf("lookup with a full L1 set: %v, probed L2 %v; want two candidates and a probe", got, l2)
	}
}

func TestHierarchyCapacityBeyondL1(t *testing.T) {
	// Targets beyond L1's associativity must survive in L2 and stay
	// predictable, which is the point of the hierarchy.
	h := NewHierarchy(smallHierarchy())
	pc := uint64(0x400)
	targets := []uint64{0x1000, 0x2000, 0x3000, 0x4000, 0x5000}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		h.Insert(pc, targets[rng.Intn(len(targets))])
	}
	got := h.Candidates(pc, nil)
	if len(got) < len(targets) {
		t.Errorf("only %d of %d targets retrievable", len(got), len(targets))
	}
}

func TestHierarchyStorageAndReset(t *testing.T) {
	h := NewHierarchy(smallHierarchy())
	if h.StorageBits() <= 0 {
		t.Error("non-positive storage")
	}
	h.Insert(0x1, 0x2000)
	h.Reset()
	// Reset empties both levels, so the lookup misses L1 and probes L2.
	if got, l2 := h.Lookup(0x1, nil); len(got) != 0 || !l2 {
		t.Errorf("lookup after Reset: %v, probed L2 %v; want none, and a probe", got, l2)
	}
}

func TestDefaultHierarchyIsoCapacity(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	l1 := cfg.L1.Sets * cfg.L1.Assoc
	l2 := cfg.L2.Sets * cfg.L2.Assoc
	if l1+l2 != 4096 {
		t.Errorf("hierarchy capacity = %d, want 4096 (iso with the paper's IBTB)", l1+l2)
	}
	if cfg.L1.Assoc >= 64 || cfg.L2.Assoc >= 64 {
		t.Error("hierarchy must avoid 64-way associativity — that is its purpose")
	}
}
