package history

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGlobalShiftAndBit(t *testing.T) {
	g := NewGlobal(128)
	// Insert 1,0,1,1 (in order). Most recent is the last Shift.
	g.Shift(true)
	g.Shift(false)
	g.Shift(true)
	g.Shift(true)
	wants := []uint64{1, 1, 0, 1}
	for i, want := range wants {
		if got := g.Bit(i); got != want {
			t.Errorf("Bit(%d) = %d, want %d", i, got, want)
		}
	}
	// Bits beyond what was inserted read as 0.
	if got := g.Bit(10); got != 0 {
		t.Errorf("Bit(10) = %d, want 0", got)
	}
}

func TestGlobalCapacityRounding(t *testing.T) {
	g := NewGlobal(630)
	if g.Capacity() < 630 {
		t.Errorf("Capacity() = %d, want >= 630", g.Capacity())
	}
	if g.Capacity()%64 != 0 {
		t.Errorf("Capacity() = %d, want multiple of 64", g.Capacity())
	}
}

func TestGlobalWrapAround(t *testing.T) {
	g := NewGlobal(64)
	// Insert far more bits than capacity; the register must keep the most
	// recent Capacity() bits, oldest silently discarded.
	ref := make([]uint64, 0, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		b := rng.Intn(2) == 1
		g.Shift(b)
		v := uint64(0)
		if b {
			v = 1
		}
		ref = append(ref, v)
	}
	for i := 0; i < g.Capacity(); i++ {
		want := ref[len(ref)-1-i]
		if got := g.Bit(i); got != want {
			t.Fatalf("after wrap, Bit(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestGlobalShiftBits(t *testing.T) {
	g := NewGlobal(64)
	g.ShiftBits(0b101, 3)
	// Oldest-first insertion: bit 0 of value goes in first, so bit 0 of
	// history is bit 2 of the value.
	if got := g.Bit(0); got != 1 {
		t.Errorf("Bit(0) = %d, want 1", got)
	}
	if got := g.Bit(1); got != 0 {
		t.Errorf("Bit(1) = %d, want 0", got)
	}
	if got := g.Bit(2); got != 1 {
		t.Errorf("Bit(2) = %d, want 1", got)
	}
}

func TestFoldDeterministicAndSensitive(t *testing.T) {
	g := NewGlobal(630)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 630; i++ {
		g.Shift(rng.Intn(2) == 1)
	}
	a := g.Fold(23, 49, 12)
	b := g.Fold(23, 49, 12)
	if a != b {
		t.Error("Fold not deterministic")
	}
	if a >= 1<<12 {
		t.Errorf("Fold result %#x exceeds width", a)
	}
	// Shifting one new bit must change some interval fold that includes
	// position 0.
	before := g.Fold(0, 13, 12)
	g.Shift(g.Bit(0) == 0) // insert the complement of the current bit 0
	after := g.Fold(0, 13, 12)
	if before == after {
		t.Error("Fold(0,13) unchanged after inserting a differing bit")
	}
}

func TestFoldMatchesBitwiseReference(t *testing.T) {
	// Word-level folding must agree with a naive bit-by-bit reference.
	ref := func(g *Global, lo, hi, width int) uint64 {
		var acc uint64
		j := 0
		// reconstruct the same chunked fold: bits [lo..hi] packed LSB-first
		// then folded in width-bit chunks of the packed value. Reproduce by
		// packing into a big slice of words then folding.
		nbits := hi - lo + 1
		words := make([]uint64, (nbits+63)/64)
		for i := 0; i < nbits; i++ {
			if g.Bit(lo+i) == 1 {
				words[i/64] |= 1 << uint(i%64)
			}
			j++
		}
		for _, w := range words {
			acc ^= w
		}
		mask := uint64(1)<<uint(width) - 1
		var out uint64
		for acc != 0 {
			out ^= acc & mask
			acc >>= uint(width)
		}
		return out
	}
	g := NewGlobal(630)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		g.Shift(rng.Intn(2) == 1)
	}
	intervals := [][2]int{{0, 13}, {1, 33}, {23, 49}, {44, 85}, {77, 149}, {159, 270}, {252, 629}}
	for _, iv := range intervals {
		for _, width := range []int{8, 10, 12} {
			got := g.Fold(iv[0], iv[1], width)
			want := ref(g, iv[0], iv[1], width)
			if got != want {
				t.Errorf("Fold(%d,%d,%d) = %#x, want %#x", iv[0], iv[1], width, got, want)
			}
		}
	}
}

func TestFoldPanics(t *testing.T) {
	g := NewGlobal(64)
	cases := []struct {
		name       string
		lo, hi, wd int
	}{
		{"negative lo", -1, 5, 8},
		{"hi < lo", 10, 5, 8},
		{"hi out of range", 0, 64, 8},
		{"zero width", 0, 5, 0},
		{"width 64", 0, 5, 64},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			g.Fold(c.lo, c.hi, c.wd)
		}()
	}
}

func TestResetClearsState(t *testing.T) {
	g := NewGlobal(64)
	for i := 0; i < 64; i++ {
		g.Shift(true)
	}
	g.Reset()
	for i := 0; i < 64; i++ {
		if g.Bit(i) != 0 {
			t.Fatalf("Bit(%d) = 1 after Reset", i)
		}
	}
}

func TestFoldWidthBoundsProperty(t *testing.T) {
	g := NewGlobal(630)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 700; i++ {
		g.Shift(rng.Intn(2) == 1)
	}
	f := func(loSeed, spanSeed uint16, widthSeed uint8) bool {
		lo := int(loSeed) % 600
		hi := lo + int(spanSeed)%(629-lo) + 0
		width := int(widthSeed)%20 + 1
		v := g.Fold(lo, hi, width)
		return v < 1<<uint(width)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
