// Package replacement implements the cache replacement policies the paper's
// structures use: re-reference interval prediction (RRIP, Jaleel et al.) for
// BLBP's indirect branch target buffer, and least-recently-used (LRU) for
// the region array and set-associative BTBs.
//
// A policy manages the ways of a set-associative structure laid out as
// numSets × assoc (way indices are local to a set); callers report hits
// and insertions and ask for victims.
package replacement

import "blbp/internal/threshold"

// RRIP implements static re-reference interval prediction (SRRIP) with
// M-bit re-reference prediction values (RRPVs). New entries are inserted
// with a "long" re-reference interval (max-1), hits promote to "near-
// immediate" (0), and victims are entries predicted to be re-referenced in
// the distant future (max). The paper manages the IBTB with 2-bit RRIP.
type RRIP struct {
	rrpv  []uint8
	assoc int
	max   uint8
}

// NewRRIP returns an RRIP policy for numSets sets of assoc ways using
// bits-wide RRPVs (the paper uses 2).
func NewRRIP(numSets, assoc, bits int) *RRIP {
	if numSets <= 0 || assoc <= 0 {
		panic("replacement: NewRRIP with non-positive geometry")
	}
	if bits <= 0 || bits > 8 {
		panic("replacement: NewRRIP bits out of range")
	}
	max := uint8(1)<<uint(bits) - 1
	r := &RRIP{rrpv: make([]uint8, numSets*assoc), assoc: assoc, max: max}
	// Start all ways at "distant" so empty ways are chosen first.
	for i := range r.rrpv {
		r.rrpv[i] = max
	}
	return r
}

// OnHit records a reference to an existing entry, promoting it to
// near-immediate re-reference.
func (r *RRIP) OnHit(set, way int) { r.rrpv[set*r.assoc+way] = 0 }

// OnInsert records an entry installed in the way, predicting a long (but
// not distant) re-reference interval.
func (r *RRIP) OnInsert(set, way int) { r.rrpv[set*r.assoc+way] = r.max - 1 }

// Victim selects the way to evict from a full set: the first way predicted
// distant, aging the whole set until one exists.
func (r *RRIP) Victim(set int) int {
	base := set * r.assoc
	for {
		for w := 0; w < r.assoc; w++ {
			if r.rrpv[base+w] == r.max {
				return w
			}
		}
		for w := 0; w < r.assoc; w++ {
			r.rrpv[base+w] = threshold.SatIncU8(r.rrpv[base+w], r.max)
		}
	}
}

// Reset restores every way to the distant interval, the freshly
// constructed state. Caches call it from their own Reset so a recycled
// structure replaces exactly like a new one.
func (r *RRIP) Reset() {
	for i := range r.rrpv {
		r.rrpv[i] = r.max
	}
}

// RRPV exposes the current prediction value of a way (used by tests).
func (r *RRIP) RRPV(set, way int) uint8 { return r.rrpv[set*r.assoc+way] }
