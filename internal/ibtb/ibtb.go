// Package ibtb implements BLBP's Indirect Branch Target Buffer (paper §3.1
// and §3.6): a highly associative, partially-tagged cache of the targets
// observed for each indirect branch, with region-compressed target storage
// and re-reference interval prediction (RRIP) replacement. A prediction
// gathers every stored target matching the branch, and BLBP selects among
// them at the bit level.
package ibtb

import (
	mathbits "math/bits"

	"blbp/internal/hashing"
	"blbp/internal/region"
	"blbp/internal/replacement"
)

// Config describes an IBTB geometry.
type Config struct {
	// Sets × Assoc is the entry count; the paper uses 64 × 64.
	Sets  int
	Assoc int
	// TagBits is the partial tag width (8 in the paper's budget).
	TagBits int
	// RegionEntries sizes the LRU region array (128 in the paper).
	RegionEntries int
	// OffsetBits is the stored low-order target width (20 in the paper).
	OffsetBits int
	// RRIPBits is the re-reference prediction width (2 in the paper).
	RRIPBits int
}

// DefaultConfig returns the paper's IBTB: 64 sets × 64 ways, 8-bit tags,
// 128 regions × 20-bit offsets, 2-bit RRIP.
func DefaultConfig() Config {
	return Config{Sets: 64, Assoc: 64, TagBits: 8, RegionEntries: 128, OffsetBits: 20, RRIPBits: 2}
}

type entry struct {
	ref    region.Ref
	offset uint64
}

// IBTB is the indirect branch target buffer.
//
// Valid bits and partial tags live in compact arrays parallel to the entry
// payloads: the way search — every way of a set, on every prediction — scans
// a per-set valid bitmask and a dense uint32 tag array instead of walking
// 32-byte entry structs, modeling the narrow CAM match hardware performs and
// keeping the scan's cache footprint to a few lines per set.
type IBTB struct {
	cfg       Config
	entries   []entry
	tags      []uint32 // partial tag per entry (meaningful only when valid)
	valid     []uint64 // per-set way bitmask, maskWords words per set
	maskWords int      // (Assoc+63)/64
	rrip      *replacement.RRIP
	regions   *region.Array
}

// New constructs an IBTB; it panics on invalid geometry.
func New(cfg Config) *IBTB {
	if cfg.Sets <= 0 || cfg.Assoc <= 0 {
		panic("ibtb: invalid geometry")
	}
	if cfg.TagBits <= 0 || cfg.TagBits > 32 {
		panic("ibtb: tag bits out of range")
	}
	if cfg.RRIPBits <= 0 {
		panic("ibtb: RRIP bits must be positive")
	}
	maskWords := (cfg.Assoc + 63) / 64
	return &IBTB{
		cfg:       cfg,
		entries:   make([]entry, cfg.Sets*cfg.Assoc),
		tags:      make([]uint32, cfg.Sets*cfg.Assoc),
		valid:     make([]uint64, cfg.Sets*maskWords),
		maskWords: maskWords,
		rrip:      replacement.NewRRIP(cfg.Sets, cfg.Assoc, cfg.RRIPBits),
		regions:   region.New(cfg.RegionEntries, cfg.OffsetBits),
	}
}

// Config returns the geometry the buffer was built with.
func (b *IBTB) Config() Config { return b.cfg }

//blbp:hot
func (b *IBTB) setAndTag(pc uint64) (int, uint32) {
	h := hashing.Mix64(pc)
	return hashing.Index(h, b.cfg.Sets), uint32(hashing.Tag(h, b.cfg.TagBits))
}

func (b *IBTB) invalidate(set, w int) {
	b.valid[set*b.maskWords+w>>6] &^= 1 << uint(w&63)
}

// Candidates appends to buf every stored target for the branch at pc, in
// deterministic way order, and returns the extended slice. Entries whose
// region was evicted are invalidated as they are discovered (modeling the
// invalidation hardware performs at region eviction).
//
//blbp:hot
func (b *IBTB) Candidates(pc uint64, buf []uint64) []uint64 {
	set, tag := b.setAndTag(pc)
	base := set * b.cfg.Assoc
	for wi := 0; wi < b.maskWords; wi++ {
		for m := b.valid[set*b.maskWords+wi]; m != 0; m &= m - 1 {
			w := wi<<6 + mathbits.TrailingZeros64(m)
			if b.tags[base+w] != tag {
				continue
			}
			e := &b.entries[base+w]
			target, ok := b.regions.Resolve(e.ref, e.offset)
			if !ok {
				b.invalidate(set, w)
				continue
			}
			buf = append(buf, target)
		}
	}
	return buf
}

// Insert records an observed target for the branch at pc. If the target is
// already present its RRIP state is promoted; otherwise a victim way is
// replaced and the new entry inserted with a long re-reference interval.
//
//blbp:hot
func (b *IBTB) Insert(pc, target uint64) {
	set, tag := b.setAndTag(pc)
	base := set * b.cfg.Assoc
	for wi := 0; wi < b.maskWords; wi++ {
		for m := b.valid[set*b.maskWords+wi]; m != 0; m &= m - 1 {
			w := wi<<6 + mathbits.TrailingZeros64(m)
			if b.tags[base+w] != tag {
				continue
			}
			e := &b.entries[base+w]
			target2, ok := b.regions.Resolve(e.ref, e.offset)
			if !ok {
				b.invalidate(set, w)
				continue
			}
			if target2 == target {
				b.rrip.OnHit(set, w)
				b.regions.Touch(e.ref)
				return
			}
		}
	}
	way := b.firstInvalidWay(set)
	if way < 0 {
		way = b.rrip.Victim(set)
	}
	ref, offset := b.regions.Acquire(target)
	b.entries[base+way] = entry{ref: ref, offset: offset}
	b.tags[base+way] = tag
	b.valid[set*b.maskWords+way>>6] |= 1 << uint(way&63)
	b.rrip.OnInsert(set, way)
}

// firstInvalidWay returns the lowest-numbered empty way of the set, or -1
// when the set is full.
//
//blbp:hot
func (b *IBTB) firstInvalidWay(set int) int {
	for wi := 0; wi < b.maskWords; wi++ {
		inv := ^b.valid[set*b.maskWords+wi]
		if rem := b.cfg.Assoc - wi<<6; rem < 64 {
			inv &= 1<<uint(rem) - 1
		}
		if inv != 0 {
			return wi<<6 + mathbits.TrailingZeros64(inv)
		}
	}
	return -1
}

// Contains reports whether the exact (pc, target) pair is currently stored.
func (b *IBTB) Contains(pc, target uint64) bool {
	set, tag := b.setAndTag(pc)
	base := set * b.cfg.Assoc
	for wi := 0; wi < b.maskWords; wi++ {
		for m := b.valid[set*b.maskWords+wi]; m != 0; m &= m - 1 {
			w := wi<<6 + mathbits.TrailingZeros64(m)
			if b.tags[base+w] != tag {
				continue
			}
			e := &b.entries[base+w]
			if got, ok := b.regions.Resolve(e.ref, e.offset); ok && got == target {
				return true
			}
		}
	}
	return false
}

// StorageBits returns the modeled hardware cost: per entry a valid bit, the
// partial tag, a region index, the offset, and the RRIP counter; plus the
// region array (44-bit bases and LRU rank bits).
func (b *IBTB) StorageBits() int {
	regionIndexBits := log2ceil(b.cfg.RegionEntries)
	perEntry := 1 + b.cfg.TagBits + regionIndexBits + b.cfg.OffsetBits + b.cfg.RRIPBits
	entries := b.cfg.Sets * b.cfg.Assoc * perEntry
	regionBits := b.cfg.RegionEntries * (44 - b.cfg.OffsetBits + log2ceil(b.cfg.RegionEntries))
	return entries + regionBits
}

// Reset invalidates the buffer and its region array.
func (b *IBTB) Reset() {
	for i := range b.entries {
		b.entries[i] = entry{}
	}
	for i := range b.tags {
		b.tags[i] = 0
	}
	for i := range b.valid {
		b.valid[i] = 0
	}
	b.rrip.Reset()
	b.regions.Reset()
}

func log2ceil(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
