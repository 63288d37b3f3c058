package experiments

import (
	"testing"

	"blbp/internal/core"
)

func TestGeometricIntervalsValid(t *testing.T) {
	for _, n := range []int{1, 3, 7, 21, 43} {
		intervals, lengths := geometricIntervals(n, 630)
		if len(intervals) != n || len(lengths) != n {
			t.Fatalf("n=%d: got %d intervals, %d lengths", n, len(intervals), len(lengths))
		}
		cfg := core.DefaultConfig()
		cfg.Intervals = intervals
		cfg.GEHLLengths = lengths
		if err := cfg.Validate(); err != nil {
			t.Errorf("n=%d: invalid config: %v", n, err)
		}
		if intervals[n-1].Hi != 630 {
			t.Errorf("n=%d: last interval ends at %d, want 630", n, intervals[n-1].Hi)
		}
		for i, iv := range intervals {
			if iv.Lo < 0 || iv.Hi <= iv.Lo {
				t.Errorf("n=%d: interval %d = %+v malformed", n, i, iv)
			}
		}
	}
}

func TestArraysVariantsStorageRoughlyConstant(t *testing.T) {
	variants := ArraysVariants(nil)
	if len(variants) < 4 {
		t.Fatalf("got %d variants", len(variants))
	}
	ref := core.New(core.DefaultConfig()).StorageBits()
	for _, v := range variants {
		got := core.New(v.Config).StorageBits()
		ratio := float64(got) / float64(ref)
		// Power-of-two row rounding makes storage vary; it must stay in
		// the same class.
		if ratio < 0.6 || ratio > 1.2 {
			t.Errorf("%s: storage ratio %.2f vs default, want ~1", v.Name, ratio)
		}
	}
}

func TestTargetBitsVariants(t *testing.T) {
	vs := TargetBitsVariants()
	if len(vs) != 4 {
		t.Fatalf("got %d variants", len(vs))
	}
	seen := map[int]bool{}
	for _, v := range vs {
		seen[v.Config.GlobalTargetBits] = true
		if err := v.Config.Validate(); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
	}
	for _, n := range []int{0, 1, 2, 4} {
		if !seen[n] {
			t.Errorf("missing GlobalTargetBits=%d variant", n)
		}
	}
}
