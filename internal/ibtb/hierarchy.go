package ibtb

import "blbp/internal/snapshot"

// The paper's future work (§6) proposes avoiding the IBTB's costly 64-way
// associative search "perhaps using a hierarchy of structures". Hierarchy
// implements that idea as an inclusive two-level buffer: a cheap
// low-associativity L1 in front of a larger moderate-associativity L2 that
// holds everything. Lookups probe L1 and fall back to the union with L2
// only when L1's answer looks incomplete (no match, or a full match set
// that may be truncated). The 64-way single-cycle CAM becomes an 8-way
// compare in the common case, with the L2 probe rate quantifying how often
// the slower path is exercised.

// Buffer is the target-store interface BLBP predicts from; both the
// monolithic IBTB and the two-level Hierarchy implement it.
type Buffer interface {
	// Candidates appends all stored targets for pc to buf.
	Candidates(pc uint64, buf []uint64) []uint64
	// Insert records an observed target for pc.
	Insert(pc, target uint64)
	// StorageBits returns the modeled hardware cost.
	StorageBits() int
	// Reset invalidates the buffer.
	Reset()
	// EncodeState serializes the buffer into a snapshot section and
	// RestoreState reinstates it into a buffer of the same geometry
	// (see internal/snapshot and state.go).
	EncodeState(e *snapshot.Enc)
	RestoreState(d *snapshot.Dec) error
}

var (
	_ Buffer = (*IBTB)(nil)
	_ Buffer = (*Hierarchy)(nil)
)

// HierarchyConfig describes a two-level IBTB.
type HierarchyConfig struct {
	// L1 and L2 geometries. They share one region array configuration
	// (each level keeps its own array; a shared array is a further
	// hardware refinement the model keeps separate for clarity).
	L1 Config
	L2 Config
}

// DefaultHierarchyConfig returns an iso-capacity split of the paper's
// 4096-entry IBTB: an 8-way L1 (512 entries) plus a 16-way victim L2
// (3584 entries).
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{Sets: 64, Assoc: 8, TagBits: 8, RegionEntries: 64, OffsetBits: 20, RRIPBits: 2},
		L2: Config{Sets: 224, Assoc: 16, TagBits: 8, RegionEntries: 128, OffsetBits: 20, RRIPBits: 2},
	}
}

// Hierarchy is the two-level IBTB.
type Hierarchy struct {
	l1 *IBTB
	l2 *IBTB
}

// NewHierarchy constructs a two-level IBTB; it panics on invalid geometry.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{l1: New(cfg.L1), l2: New(cfg.L2)}
}

// Candidates implements Buffer: Lookup without its probe report.
func (h *Hierarchy) Candidates(pc uint64, buf []uint64) []uint64 {
	buf, _ = h.Lookup(pc, buf)
	return buf
}

// Lookup appends pc's candidates to buf, L1's first. L2 is probed only
// when L1 has no (or few) matches, and its candidates are appended with
// duplicates across levels suppressed. probedL2 reports whether this
// lookup probed L2: the slow path whose rate the hierarchy exists to keep
// low.
func (h *Hierarchy) Lookup(pc uint64, buf []uint64) (_ []uint64, probedL2 bool) {
	start := len(buf)
	buf = h.l1.Candidates(pc, buf)
	l1n := len(buf) - start
	// Probe L2 when L1 looks incomplete for a polymorphic branch: zero or
	// exactly-full match sets suggest missing targets.
	if l1n == 0 || l1n == h.l1.cfg.Assoc {
		probedL2 = true
		mark := len(buf)
		buf = h.l2.Candidates(pc, buf)
		// Drop L2 entries that duplicate L1 ones.
		out := buf[:mark]
		for _, t := range buf[mark:] {
			dup := false
			for _, s := range buf[start:mark] {
				if s == t {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, t)
			}
		}
		buf = out
	}
	return buf, probedL2
}

// Insert implements Buffer: the hierarchy is inclusive, so every observed
// target enters both levels. L1 keeps the hot recent targets; anything its
// low associativity evicts survives in L2.
func (h *Hierarchy) Insert(pc, target uint64) {
	h.l1.Insert(pc, target)
	h.l2.Insert(pc, target)
}

// StorageBits implements Buffer.
func (h *Hierarchy) StorageBits() int { return h.l1.StorageBits() + h.l2.StorageBits() }

// Reset implements Buffer.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
}
