// Package btb implements a set-associative, partially-tagged branch target
// buffer. It serves three roles in the reproduction: the paper's baseline
// indirect predictor (a 32K-entry BTB filled with last-taken targets), the
// target store behind the VPC predictor (indexed by virtual PCs), and — with
// hysteresis enabled — Calder & Grunwald's 2-bit BTB variant that replaces a
// target only after two consecutive mispredictions.
package btb

import (
	"blbp/internal/hashing"
	"blbp/internal/replacement"
)

// Config describes a BTB geometry.
type Config struct {
	// Entries is the total entry count (sets × ways). Must be positive and
	// divisible by Assoc.
	Entries int
	// Assoc is the set associativity; 1 means direct-mapped.
	Assoc int
	// TagBits is the partial tag width.
	TagBits int
	// TargetBits is the number of target address bits modeled as stored per
	// entry (for the hardware budget; the simulator keeps full targets).
	TargetBits int
	// Hysteresis enables the 2-bit-counter replacement rule: an existing
	// target is replaced only after two consecutive mismatching updates.
	Hysteresis bool
}

// Default32K returns the paper's baseline configuration: a 32K-entry
// direct-mapped partially-tagged BTB (Table 2, 64 KB budget).
func Default32K() Config {
	return Config{Entries: 32768, Assoc: 1, TagBits: 8, TargetBits: 44}
}

type entry struct {
	tag    uint64
	target uint64
	valid  bool
	misses uint8 // consecutive mismatching updates (hysteresis mode)
}

// BTB is a set-associative branch target buffer.
type BTB struct {
	cfg     Config
	sets    int
	entries []entry
	lru     *replacement.LRU
}

// New constructs a BTB from cfg.
func New(cfg Config) *BTB {
	if cfg.Entries <= 0 || cfg.Assoc <= 0 || cfg.Entries%cfg.Assoc != 0 {
		panic("btb: invalid geometry")
	}
	if cfg.TagBits <= 0 || cfg.TagBits > 32 {
		panic("btb: tag bits out of range")
	}
	if cfg.TargetBits <= 0 {
		cfg.TargetBits = 44
	}
	sets := cfg.Entries / cfg.Assoc
	return &BTB{
		cfg:     cfg,
		sets:    sets,
		entries: make([]entry, cfg.Entries),
		lru:     replacement.NewLRU(sets, cfg.Assoc),
	}
}

func (b *BTB) setAndTag(pc uint64) (int, uint64) {
	h := hashing.Mix64(pc)
	return hashing.Index(h, b.sets), hashing.Tag(h, b.cfg.TagBits)
}

// Lookup returns the stored target for pc, if any.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	set, tag := b.setAndTag(pc)
	base := set * b.cfg.Assoc
	for w := 0; w < b.cfg.Assoc; w++ {
		e := &b.entries[base+w]
		if e.valid && e.tag == tag {
			b.lru.OnHit(set, w)
			return e.target, true
		}
	}
	return 0, false
}

// Update installs or refreshes the target for pc. Without hysteresis the
// stored target always becomes the supplied one (last-taken policy); with
// hysteresis a differing target must be observed twice in a row to displace
// the incumbent.
func (b *BTB) Update(pc, target uint64) {
	set, tag := b.setAndTag(pc)
	base := set * b.cfg.Assoc
	for w := 0; w < b.cfg.Assoc; w++ {
		e := &b.entries[base+w]
		if e.valid && e.tag == tag {
			b.lru.OnHit(set, w)
			if e.target == target {
				e.misses = 0
				return
			}
			if b.cfg.Hysteresis && e.misses == 0 {
				e.misses = 1
				return
			}
			e.target = target
			e.misses = 0
			return
		}
	}
	// Miss: fill an invalid way if one exists, else evict the LRU way.
	way := -1
	for w := 0; w < b.cfg.Assoc; w++ {
		if !b.entries[base+w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = b.lru.Victim(set)
	}
	b.entries[base+way] = entry{tag: tag, target: target, valid: true}
	b.lru.OnInsert(set, way)
}

// SlotRecency returns the recency stamp of the entry that an insertion at
// pc would displace (the LRU way of pc's set; 0 when that way was never
// touched). VPC uses this to insert new targets at the least recently used
// virtual-PC slot, per Kim et al.
func (b *BTB) SlotRecency(pc uint64) uint64 {
	set, _ := b.setAndTag(pc)
	base := set * b.cfg.Assoc
	for w := 0; w < b.cfg.Assoc; w++ {
		if !b.entries[base+w].valid {
			return 0
		}
	}
	return b.lru.Stamp(set, b.lru.Victim(set))
}

// StorageBits returns the modeled hardware cost in bits: per entry a valid
// bit, the partial tag, the stored target bits, recency state
// (log2(assoc) bits per way), and the hysteresis bit when enabled.
func (b *BTB) StorageBits() int {
	perEntry := 1 + b.cfg.TagBits + b.cfg.TargetBits
	if b.cfg.Hysteresis {
		perEntry++
	}
	perEntry += log2ceil(b.cfg.Assoc)
	return b.cfg.Entries * perEntry
}

// Reset restores the freshly constructed state: every entry invalid and the
// recency stamps and clock zeroed (VPC reads them through SlotRecency).
func (b *BTB) Reset() {
	for i := range b.entries {
		b.entries[i] = entry{}
	}
	b.lru.Reset()
}

func log2ceil(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
