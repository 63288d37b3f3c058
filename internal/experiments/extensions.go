package experiments

import (
	"fmt"
	"math"

	"blbp/internal/core"
)

// geometricIntervals splits the usable history depth into n geometric
// intervals (each starting slightly before the previous one ends, as the
// paper's tuned intervals overlap). Used to scale the number of
// sub-predictor SRAM arrays in the SNIP-to-BLBP reduction study.
func geometricIntervals(n, maxHist int) ([]core.Interval, []int) {
	if n < 1 {
		panic("experiments: need at least one interval")
	}
	intervals := make([]core.Interval, n)
	lengths := make([]int, n)
	lo := 0
	hi := 13
	ratio := 1.0
	if n > 1 {
		// Choose the growth so the last interval ends at maxHist.
		ratio = math.Pow(float64(maxHist)/13, 1/float64(n-1))
	}
	end := 13.0
	for i := 0; i < n; i++ {
		if hi > maxHist {
			hi = maxHist
		}
		intervals[i] = core.Interval{Lo: lo, Hi: hi}
		lengths[i] = hi + 1
		// Next interval starts inside the current one (~15% overlap).
		lo = hi - (hi-lo)/6
		end *= ratio
		hi = int(end + 0.5)
		if hi <= lo {
			hi = lo + 1
		}
	}
	intervals[n-1].Hi = maxHist
	if intervals[n-1].Lo >= maxHist {
		intervals[n-1].Lo = maxHist - 1
	}
	lengths[n-1] = maxHist + 1
	return intervals, lengths
}

// ArraysVariants returns BLBP configurations sweeping the number of weight
// SRAM arrays (1 local + n interval tables). The paper's §3 positions BLBP
// as reducing SNIP's 44 arrays to 8; this sweep quantifies the trade-off.
// Each variant keeps total weight storage roughly constant by scaling rows.
func ArraysVariants(arrayCounts []int) []BLBPVariant {
	if len(arrayCounts) == 0 {
		arrayCounts = []int{2, 4, 8, 16, 24, 44}
	}
	base := core.DefaultConfig()
	totalRows := base.SubPredictors() * base.TableEntries
	variants := make([]BLBPVariant, 0, len(arrayCounts))
	for _, n := range arrayCounts {
		if n < 2 {
			continue
		}
		cfg := base
		intervals, lengths := geometricIntervals(n-1, cfg.HistBits-1)
		cfg.Intervals = intervals
		cfg.GEHLLengths = lengths
		rows := totalRows / n
		// Keep power-of-two row counts for cheap indexing.
		p2 := 1
		for p2*2 <= rows {
			p2 *= 2
		}
		cfg.TableEntries = p2
		variants = append(variants, BLBPVariant{
			Name:   fmt.Sprintf("arrays-%d", n),
			Config: cfg,
		})
	}
	return variants
}

// TargetBitsVariants sweeps GlobalTargetBits, the implementation choice
// documented in DESIGN.md §2 (how many hashed target bits each resolved
// indirect branch contributes to BLBP's global history; 0 is the
// paper-literal conditional-only GHIST).
func TargetBitsVariants() []BLBPVariant {
	out := make([]BLBPVariant, 0, 4)
	for _, n := range []int{0, 1, 2, 4} {
		cfg := core.DefaultConfig()
		cfg.GlobalTargetBits = n
		out = append(out, BLBPVariant{Name: fmt.Sprintf("targetbits-%d", n), Config: cfg})
	}
	return out
}
