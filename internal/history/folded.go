package history

import (
	"math"
	"math/bits"
)

// FoldID identifies one registered fold within a FoldedSet.
type FoldID int

// accReg is one incrementally maintained interval accumulator. Fold's
// definition is two-stage: XOR the interval's bit string into a 64-bit
// accumulator by 64-bit chunks (bit b of acc = XOR of history bits lo+b,
// lo+b+64, ...), then XOR-reduce the accumulator to width bits. The
// accumulator is exactly a width-64 circular shift register over the
// interval: shifting one new bit into the history ages every interval bit by
// one chunk position, so
//
//	acc' = rotl64(acc, 1) ^ entering ^ leaving<<(n mod 64)
//
// where entering is the history bit sliding into position lo (the inserted
// bit itself when lo == 0, else the old bit at lo-1), leaving is the old
// bit at hi sliding out, and n = hi-lo+1. That is O(1) per history bit —
// the folded-history CSR hardware TAGE/GEHL predictors implement — and the
// cheap second-stage reduction on read keeps Value bit-identical to Fold.
//
// Because the accumulator is width-independent, folds over the same
// (lo, hi) interval share one accReg regardless of their output widths —
// TAGE-style predictors registering an index fold and a tag fold per
// history length pay for each interval once per Shift, not once per fold.
type accReg struct {
	lo, hi   int
	outShift uint // n mod 64: accumulator position of the leaving bit
	acc      uint64
}

// foldView maps a registered fold to its shared accumulator and output
// width.
type foldView struct {
	accIdx int
	width  uint
}

// FoldedSet couples a Global history register with a set of interval folds
// maintained incrementally and *lazily*. Each (lo, hi, width) interval is
// registered once at predictor construction. Shift and ShiftBits only
// advance the raw register and a pending-bit counter; the accumulators are
// caught up in one O(1) step each at the next fold read (catchUp). Between
// reads the predictor observes nothing, so laziness is invisible: Value is
// bit-identical to Global.Fold(lo, hi, width) on the equivalent register
// state, however the outcome bits arrived.
//
// The register is allocated with 64 bits of slack beyond the logical
// capacity so that up to 64 pending bits can accumulate before the oldest
// leaving-bit information (history bit hi at insertion time, now at raw
// index hi+pending) is overwritten; catchUp fires automatically at that
// bound.
type FoldedSet struct {
	g       *Global
	capBits int // logical capacity; Register bounds intervals by this
	pending int // raw-register shifts not yet applied to the accumulators
	accs    []accReg
	folds   []foldView
}

// NewFoldedSet returns a folded history register holding at least capacity
// bits and no registered folds.
func NewFoldedSet(capacity int) *FoldedSet {
	if capacity <= 0 {
		panic("history: NewFoldedSet with non-positive capacity")
	}
	logical := (capacity + 63) / 64 * 64
	return &FoldedSet{g: NewGlobal(logical + 64), capBits: logical}
}

// Register adds an interval fold and returns its id. Argument constraints
// are those of Global.Fold: 0 <= lo <= hi < Capacity(), 1 <= width <= 63.
// The initial value reflects the register's current contents, so predictors
// may register folds before or after history has accumulated. Folds sharing
// an interval share the underlying accumulator.
func (s *FoldedSet) Register(lo, hi, width int) FoldID {
	if lo < 0 || hi < lo || hi >= s.capBits {
		panic("history: Register interval out of range")
	}
	if width <= 0 || width >= 64 {
		panic("history: Register width out of range")
	}
	s.catchUp()
	accIdx := -1
	for i := range s.accs {
		if s.accs[i].lo == lo && s.accs[i].hi == hi {
			accIdx = i
			break
		}
	}
	if accIdx < 0 {
		n := hi - lo + 1
		s.accs = append(s.accs, accReg{
			lo:       lo,
			hi:       hi,
			outShift: uint(n % 64),
			acc:      s.g.foldAcc(lo, hi),
		})
		accIdx = len(s.accs) - 1
	}
	s.folds = append(s.folds, foldView{accIdx: accIdx, width: uint(width)})
	return FoldID(len(s.folds) - 1)
}

// NumFolds returns how many folds have been registered.
func (s *FoldedSet) NumFolds() int { return len(s.folds) }

// NumAccumulators returns how many distinct interval accumulators back the
// registered folds (folds over the same interval share one).
func (s *FoldedSet) NumAccumulators() int { return len(s.accs) }

// Value returns the current fold value for id: identical to
// Fold(lo, hi, width) of the registered interval, without re-walking the
// history bits. The first read after a run of shifts catches every
// accumulator up in one step each.
//
//blbp:hot
func (s *FoldedSet) Value(id FoldID) uint64 {
	if s.pending != 0 {
		s.catchUp()
	}
	f := &s.folds[id]
	return foldDown(s.accs[f.accIdx].acc, f.width)
}

// catchUp applies the pending raw-register shifts to every interval
// accumulator in one step each. With P pending bits, the bits that entered
// interval position lo over the run now sit at raw indices [lo, lo+P) and
// the bits that left past hi at [hi+1, hi+1+P) — both still present thanks
// to the 64-bit allocation slack — and XOR-linearity collapses the P
// per-bit updates into one rotate and two masked word reads:
//
//	acc' = rotl64(acc, P) ^ entering ^ rotl64(leaving, n mod 64)
//
//blbp:hot
func (s *FoldedSet) catchUp() {
	p := s.pending
	if p == 0 {
		return
	}
	s.pending = 0
	g := s.g
	mask := uint64(1)<<uint(p) - 1 // p == 64 wraps to all ones
	for i := range s.accs {
		f := &s.accs[i]
		in := g.word64(f.lo) & mask
		out := g.word64(f.hi+1) & mask
		f.acc = bits.RotateLeft64(f.acc, p) ^ in ^ bits.RotateLeft64(out, int(f.outShift))
	}
}

// Capacity returns the usable history length in bits.
func (s *FoldedSet) Capacity() int { return s.capBits }

// Bit returns history bit i (0 = most recent) as 0 or 1.
func (s *FoldedSet) Bit(i int) uint64 { return s.g.Bit(i) }

// Fold computes an interval fold from scratch (the reference implementation;
// see Global.Fold). Registered folds match it bit for bit.
func (s *FoldedSet) Fold(lo, hi, width int) uint64 { return s.g.Fold(lo, hi, width) }

// Shift inserts one outcome bit as the new most-recent history bit. Only
// the raw register advances; accumulator catch-up is deferred to the next
// fold read (or to the 64-pending-bit bound, where leaving-bit information
// would start to be overwritten).
//
//blbp:hot
func (s *FoldedSet) Shift(b bool) {
	if s.pending == 64 {
		s.catchUp()
	}
	s.g.Shift(b)
	s.pending++
}

// ShiftBits inserts the low n bits of v, oldest-first, exactly as
// Global.ShiftBits does.
func (s *FoldedSet) ShiftBits(v uint64, n int) {
	for i := 0; i < n; i++ {
		s.Shift(v>>uint(i)&1 != 0)
	}
}

// Reset clears all history bits and registered folds.
func (s *FoldedSet) Reset() {
	s.g.Reset()
	s.pending = 0
	for i := range s.accs {
		s.accs[i].acc = 0
	}
}

// FoldedSnapshot is an opaque copy of a FoldedSet's state (history bits and
// fold accumulators). The zero value is valid as a SnapshotInto destination.
type FoldedSnapshot struct {
	words []uint64
	head  int
	accs  []uint64
}

// SnapshotInto captures the current state into dst, reusing dst's storage
// when possible so steady-state snapshotting does not allocate (VPC
// snapshots once per prediction).
func (s *FoldedSet) SnapshotInto(dst *FoldedSnapshot) {
	s.catchUp()
	dst.words = append(dst.words[:0], s.g.words...)
	dst.head = s.g.head
	dst.accs = dst.accs[:0]
	for i := range s.accs {
		dst.accs = append(dst.accs, s.accs[i].acc)
	}
}

// Restore reinstates a snapshot taken from a FoldedSet with the same
// capacity and fold registrations.
func (s *FoldedSet) Restore(snap *FoldedSnapshot) {
	if len(snap.words) != len(s.g.words) || len(snap.accs) != len(s.accs) {
		panic("history: FoldedSet.Restore snapshot from different shape")
	}
	copy(s.g.words, snap.words)
	s.g.head = snap.head
	s.pending = 0
	for i := range s.accs {
		s.accs[i].acc = snap.accs[i]
	}
}

// GeometricLengths returns the history lengths of n tagged tables, from min
// to max in a geometric series (Seznec's GEHL formula) rounded to strictly
// increasing integers, the last clamped to max. One table gets [min]. TAGE
// and ITTAGE both size their tables' folds by it.
func GeometricLengths(min, max, n int) []int {
	lens := make([]int, n)
	ratio := 1.0
	if n > 1 {
		ratio = math.Pow(float64(max)/float64(min), 1/float64(n-1))
	}
	prev := 0
	v := float64(min)
	for i := range lens {
		l := int(v + 0.5)
		if l <= prev {
			l = prev + 1
		}
		lens[i] = l
		prev = l
		v *= ratio
	}
	if lens[n-1] > max {
		lens[n-1] = max
	}
	return lens
}
