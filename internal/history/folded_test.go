package history

import (
	"math/rand"
	"testing"
)

// foldedTestIntervals mixes the register's real consumers (BLBP's tuned
// intervals at width 22, ITTAGE-style [0, len-1] index/tag folds at widths
// 22 and 17) with adversarial shapes: width 1, interval length < width,
// interval length an exact multiple of the width, and intervals hugging the
// capacity boundary so the circular register wraps through them.
var foldedTestIntervals = []struct{ lo, hi, width int }{
	{0, 13, 22},
	{1, 33, 22},
	{23, 49, 22},
	{252, 630, 22},
	{0, 629, 17},
	{0, 629, 22},  // same interval as above at another width: shares its accumulator
	{0, 13, 9},    // ditto for the short head interval
	{0, 3, 22},    // shorter than the width
	{0, 43, 22},   // length 44 = 2x22, leaving bit folds onto bit 0
	{7, 7, 5},     // single-bit interval
	{0, 630, 1},   // width 1: parity of the whole register
	{600, 630, 6}, // tail interval: wraps across the word boundary early
}

// TestFoldedSetMatchesReferenceFold drives a FoldedSet and an identical
// reference Global through >10k random interleavings of Shift, ShiftBits,
// Reset, and Snapshot/Restore, checking every registered fold against the
// from-scratch Fold after each step.
func TestFoldedSetMatchesReferenceFold(t *testing.T) {
	const capacity = 631
	rng := rand.New(rand.NewSource(42))

	fs := NewFoldedSet(capacity)
	ref := NewGlobal(capacity)
	ids := make([]FoldID, len(foldedTestIntervals))
	for i, iv := range foldedTestIntervals {
		ids[i] = fs.Register(iv.lo, iv.hi, iv.width)
	}

	check := func(step int) {
		t.Helper()
		for i, iv := range foldedTestIntervals {
			want := ref.Fold(iv.lo, iv.hi, iv.width)
			if got := fs.Value(ids[i]); got != want {
				t.Fatalf("step %d: fold[%d,%d]@%d = %#x, want %#x",
					step, iv.lo, iv.hi, iv.width, got, want)
			}
			// The set's own reference path must agree too.
			if got := fs.Fold(iv.lo, iv.hi, iv.width); got != want {
				t.Fatalf("step %d: FoldedSet.Fold disagrees with Global.Fold", step)
			}
		}
	}

	// The reference register rolls back by copying its own words and head.
	var snap FoldedSnapshot
	var refWords []uint64
	var refHead int
	haveSnap := false

	const steps = 12000
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 70: // single outcome bit
			b := rng.Intn(2) == 0
			fs.Shift(b)
			ref.Shift(b)
		case r < 90: // multi-bit target insert
			v := rng.Uint64()
			n := 1 + rng.Intn(8)
			fs.ShiftBits(v, n)
			for i := 0; i < n; i++ {
				ref.Shift(v>>uint(i)&1 != 0)
			}
		case r < 93:
			fs.Reset()
			ref.Reset()
		case r < 97: // snapshot both registers
			fs.SnapshotInto(&snap)
			refWords, refHead = append(refWords[:0], ref.words...), ref.head
			haveSnap = true
		default: // roll both back, if a snapshot exists
			if haveSnap {
				fs.Restore(&snap)
				copy(ref.words, refWords)
				ref.head = refHead
			}
		}
		check(step)
	}
}

// TestFoldedSetRegisterOnWarmHistory registers folds after history has
// accumulated: the initial value must reflect the existing contents.
func TestFoldedSetRegisterOnWarmHistory(t *testing.T) {
	fs := NewFoldedSet(128)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		fs.Shift(rng.Intn(2) == 0)
	}
	id := fs.Register(5, 90, 13)
	if got, want := fs.Value(id), fs.Fold(5, 90, 13); got != want {
		t.Fatalf("fold registered on warm history = %#x, want %#x", got, want)
	}
	for i := 0; i < 300; i++ {
		fs.Shift(rng.Intn(2) == 0)
		if got, want := fs.Value(id), fs.Fold(5, 90, 13); got != want {
			t.Fatalf("step %d: fold = %#x, want %#x", i, got, want)
		}
	}
}

// TestFoldedSetSharesAccumulators verifies folds over the same interval
// share one accumulator (the TAGE index/tag case) while remaining
// independently correct at their own widths.
func TestFoldedSetSharesAccumulators(t *testing.T) {
	fs := NewFoldedSet(256)
	idx := fs.Register(0, 129, 22)
	tag := fs.Register(0, 129, 17)
	other := fs.Register(0, 63, 22)
	if got := fs.NumFolds(); got != 3 {
		t.Fatalf("NumFolds = %d, want 3", got)
	}
	if got := fs.NumAccumulators(); got != 2 {
		t.Fatalf("NumAccumulators = %d, want 2 (idx/tag share one)", got)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		fs.Shift(rng.Intn(2) == 0)
	}
	for _, c := range []struct {
		id          FoldID
		lo, hi, w   int
		description string
	}{
		{idx, 0, 129, 22, "index fold"},
		{tag, 0, 129, 17, "tag fold"},
		{other, 0, 63, 22, "unshared fold"},
	} {
		if got, want := fs.Value(c.id), fs.Fold(c.lo, c.hi, c.w); got != want {
			t.Errorf("%s = %#x, want %#x", c.description, got, want)
		}
	}
}

// TestFoldedSetRestoreShapeChecks verifies Restore rejects snapshots from a
// differently shaped set.
func TestFoldedSetRestoreShapeChecks(t *testing.T) {
	a := NewFoldedSet(64)
	a.Register(0, 10, 5)
	b := NewFoldedSet(64)
	var snap FoldedSnapshot
	a.SnapshotInto(&snap)
	defer func() {
		if recover() == nil {
			t.Error("Restore with mismatched fold count did not panic")
		}
	}()
	b.Restore(&snap)
}

func BenchmarkFoldedSetShift(b *testing.B) {
	fs := NewFoldedSet(631)
	for _, iv := range foldedTestIntervals {
		fs.Register(iv.lo, iv.hi, iv.width)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Shift(i&1 == 0)
	}
}

// BenchmarkFoldFromScratch is the cost the incremental layer replaces: one
// from-scratch fold of the seven BLBP intervals per prediction.
func BenchmarkFoldFromScratch(b *testing.B) {
	g := NewGlobal(631)
	for i := 0; i < 631; i++ {
		g.Shift(i%3 == 0)
	}
	intervals := [][2]int{{0, 13}, {1, 33}, {23, 49}, {44, 85}, {77, 149}, {159, 270}, {252, 630}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, iv := range intervals {
			g.Fold(iv[0], iv[1], 22)
		}
	}
}

// TestFoldedSetLongRunsMatchFold shifts runs of random bits between fold
// reads, as the span feeders do over a conditional run, with run lengths
// that straddle the 64-pending-bit catch-up bound and exceed the capacity,
// and checks every fold against the from-scratch Fold after each run.
func TestFoldedSetLongRunsMatchFold(t *testing.T) {
	const capacity = 631
	rng := rand.New(rand.NewSource(7))

	fs := NewFoldedSet(capacity)
	ids := make([]FoldID, len(foldedTestIntervals))
	for i, iv := range foldedTestIntervals {
		ids[i] = fs.Register(iv.lo, iv.hi, iv.width)
	}
	for step := 0; step < 400; step++ {
		// Run lengths cover empty, short, catch-up-bound-adjacent and
		// longer-than-capacity runs.
		n := rng.Intn(130)
		switch rng.Intn(8) {
		case 0:
			n = 0
		case 1:
			n = rng.Intn(800)
		}
		for i := 0; i < n; i++ {
			fs.Shift(rng.Intn(2) == 0)
		}
		for i, iv := range foldedTestIntervals {
			if got, want := fs.Value(ids[i]), fs.Fold(iv.lo, iv.hi, iv.width); got != want {
				t.Fatalf("step %d (run %d): fold[%d,%d]@%d = %#x, from-scratch %#x",
					step, n, iv.lo, iv.hi, iv.width, got, want)
			}
		}
	}
}
