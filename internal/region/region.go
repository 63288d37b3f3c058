// Package region implements the region-based compressed representation of
// branch targets that Seznec proposed for ITTAGE and that BLBP's IBTB reuses
// (paper §3.6, "BTB Compression"): a small LRU-managed array holds the
// high-order address bits ("regions"), and each stored target is a region
// index plus a low-order offset, roughly halving target storage.
//
// When a region is evicted, hardware would invalidate (or silently corrupt)
// entries still referencing it. The simulator models precise invalidation
// with generation counters: every reference carries the generation of the
// region slot it was created under, and resolving a stale reference fails,
// exactly as if the entry had been invalidated at eviction time.
package region

import "blbp/internal/replacement"

// Ref identifies a region slot at a particular generation.
type Ref struct {
	Index int
	Gen   uint32
}

// Array is the region array.
type Array struct {
	bases      []uint64
	gens       []uint32
	valid      []bool
	lru        *replacement.LRU
	offsetBits int
}

// New returns a region array with the given number of entries, where stored
// offsets are offsetBits wide (the paper uses 128 entries and 20-bit
// offsets).
func New(entries, offsetBits int) *Array {
	if entries <= 0 {
		panic("region: New with non-positive entries")
	}
	if offsetBits <= 0 || offsetBits >= 64 {
		panic("region: offsetBits out of range")
	}
	return &Array{
		bases:      make([]uint64, entries),
		gens:       make([]uint32, entries),
		valid:      make([]bool, entries),
		lru:        replacement.NewLRU(1, entries),
		offsetBits: offsetBits,
	}
}

// Entries returns the capacity of the array.
func (a *Array) Entries() int { return len(a.bases) }

// OffsetBits returns the configured offset width.
func (a *Array) OffsetBits() int { return a.offsetBits }

func (a *Array) split(target uint64) (base, offset uint64) {
	return target >> uint(a.offsetBits), target & (1<<uint(a.offsetBits) - 1)
}

// Lookup finds the region holding target's high bits without allocating.
func (a *Array) Lookup(target uint64) (Ref, uint64, bool) {
	base, offset := a.split(target)
	for i, b := range a.bases {
		if a.valid[i] && b == base {
			return Ref{Index: i, Gen: a.gens[i]}, offset, true
		}
	}
	return Ref{}, 0, false
}

// Acquire returns a reference for target's region, allocating (and evicting
// the LRU region) if necessary, and touches the region's recency.
func (a *Array) Acquire(target uint64) (Ref, uint64) {
	base, offset := a.split(target)
	for i, b := range a.bases {
		if a.valid[i] && b == base {
			a.lru.OnHit(0, i)
			return Ref{Index: i, Gen: a.gens[i]}, offset
		}
	}
	victim := a.lru.Victim(0)
	a.bases[victim] = base
	a.gens[victim]++
	a.valid[victim] = true
	a.lru.OnInsert(0, victim)
	return Ref{Index: victim, Gen: a.gens[victim]}, offset
}

// Resolve reconstructs the full target from a reference and offset. It
// reports false when the reference is stale (its region was evicted) or
// malformed.
func (a *Array) Resolve(ref Ref, offset uint64) (uint64, bool) {
	if ref.Index < 0 || ref.Index >= len(a.bases) {
		return 0, false
	}
	if !a.valid[ref.Index] || a.gens[ref.Index] != ref.Gen {
		return 0, false
	}
	return a.bases[ref.Index]<<uint(a.offsetBits) | offset, true
}

// Touch marks a region as recently used (a prediction hit through one of
// its targets).
func (a *Array) Touch(ref Ref) {
	if ref.Index >= 0 && ref.Index < len(a.bases) && a.valid[ref.Index] && a.gens[ref.Index] == ref.Gen {
		a.lru.OnHit(0, ref.Index)
	}
}

// Reset restores the freshly constructed state: bases, generations and
// valid bits zeroed and the LRU state cleared. Zeroed generations let an old
// Ref resolve again once its slot is reacquired, so the owner must clear
// every Ref it holds in the same Reset (the IBTB and ITTAGE zero their
// entries).
func (a *Array) Reset() {
	for i := range a.bases {
		a.bases[i] = 0
		a.gens[i] = 0
		a.valid[i] = false
	}
	a.lru.Reset()
}
