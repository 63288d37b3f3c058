// Package history implements the branch-history state that feeds predictor
// index functions: a long global history register with interval folding
// (BLBP's 630-bit GHIST and the hashed perceptron's features), a table of
// per-branch local histories, a path history register, and Tagged, the
// history half TAGE and ITTAGE share: their geometric folds, tag widths,
// index and tag hashes, path register, allocation xorshift, usefulness
// reset timing, use-alt counter and snapshot sections.
package history

// Global is a circular shift register of branch-history bits. Bit 0 is the
// most recent outcome. It supports extracting and XOR-folding arbitrary
// [lo, hi] intervals, which is how BLBP's eight sub-predictors and ITTAGE's
// tagged tables derive their indices.
type Global struct {
	words   []uint64
	capBits int // always a multiple of 64, >= requested capacity
	head    int // bit index of the most recent outcome
}

// NewGlobal returns a history register holding at least capacity bits.
func NewGlobal(capacity int) *Global {
	if capacity <= 0 {
		panic("history: NewGlobal with non-positive capacity")
	}
	w := (capacity + 63) / 64
	return &Global{words: make([]uint64, w), capBits: w * 64}
}

// Capacity returns the usable history length in bits.
func (g *Global) Capacity() int { return g.capBits }

// Shift inserts one outcome bit as the new most-recent history bit.
//
//blbp:hot
func (g *Global) Shift(b bool) {
	g.head--
	if g.head < 0 {
		g.head = g.capBits - 1
	}
	wi, bi := g.head>>6, uint(g.head&63)
	if b {
		g.words[wi] |= 1 << bi
	} else {
		g.words[wi] &^= 1 << bi
	}
}

// ShiftBits inserts the low n bits of v, oldest-first, so that after the
// call bit 0 holds bit n-1 of v. It is used to record a few target-address
// bits on resolved indirect branches.
func (g *Global) ShiftBits(v uint64, n int) {
	for i := 0; i < n; i++ {
		g.Shift(v>>uint(i)&1 != 0)
	}
}

// Bit returns history bit i (0 = most recent) as 0 or 1. i must be within
// capacity.
func (g *Global) Bit(i int) uint64 {
	if i < 0 || i >= g.capBits {
		panic("history: Bit index out of range")
	}
	return g.bit(i)
}

// bit is Bit without the range check, for hot paths that index within
// registered bounds (FoldedSet's per-shift fold updates).
//
//blbp:hot
func (g *Global) bit(i int) uint64 {
	pos := g.head + i
	if pos >= g.capBits {
		pos -= g.capBits
	}
	return (g.words[pos>>6] >> uint(pos&63)) & 1
}

// word64 returns 64 consecutive history bits starting at logical index i
// (bit j of the result is history bit i+j).
//
//blbp:hot
func (g *Global) word64(i int) uint64 {
	pos := g.head + i
	if pos >= g.capBits {
		pos -= g.capBits
	}
	wi, bi := pos>>6, uint(pos&63)
	lo := g.words[wi] >> bi
	if bi == 0 {
		return lo
	}
	ni := wi + 1
	if ni == len(g.words) {
		ni = 0
	}
	next := g.words[ni]
	return lo | next<<(64-bi)
}

// Fold XOR-folds history bits in the inclusive interval [lo, hi] down to a
// width-bit value. lo <= hi must both be within capacity and width must be
// in [1, 63]. The same register state always folds to the same value, and
// the fold depends on every bit in the interval.
func (g *Global) Fold(lo, hi, width int) uint64 {
	if lo < 0 || hi < lo || hi >= g.capBits {
		panic("history: Fold interval out of range")
	}
	if width <= 0 || width >= 64 {
		panic("history: Fold width out of range")
	}
	return foldDown(g.foldAcc(lo, hi), uint(width))
}

// foldAcc XOR-combines the [lo, hi] interval's 64-bit chunks: bit b of the
// result is the XOR of history bits lo+b, lo+b+64, lo+b+128, ... — the first
// stage of Fold, and the quantity FoldedSet maintains incrementally.
func (g *Global) foldAcc(lo, hi int) uint64 {
	n := hi - lo + 1
	var acc uint64
	for off := 0; off < n; off += 64 {
		w := g.word64(lo + off)
		if rem := n - off; rem < 64 {
			w &= (1 << uint(rem)) - 1
		}
		acc ^= w
	}
	return acc
}

// foldDown reduces a 64-bit chunk accumulator to width bits — the second
// stage of Fold.
func foldDown(acc uint64, width uint) uint64 {
	mask := uint64(1)<<width - 1
	var out uint64
	for acc != 0 {
		out ^= acc & mask
		acc >>= width
	}
	return out
}

// Reset clears all history bits.
func (g *Global) Reset() {
	for i := range g.words {
		g.words[i] = 0
	}
	g.head = 0
}
