// Package core implements BLBP, the Bit-Level Perceptron-Based Indirect
// Branch Predictor (Garza et al., ISCA 2019). BLBP predicts each low-order
// bit of an indirect branch's target with a bank of hashed-perceptron
// sub-predictors and then selects, among the targets stored in an indirect
// branch target buffer (IBTB), the one whose bit vector is most similar to
// the predicted-bit confidence vector (a non-normalized cosine similarity).
package core

import (
	"fmt"

	"blbp/internal/ibtb"
)

// Interval is an inclusive [Lo, Hi] global-history range.
type Interval struct {
	Lo, Hi int
}

// Config parameterizes a BLBP predictor. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// K is the number of low-order target bits predicted (12 in the paper).
	K int
	// BitOffset is the position of the lowest predicted bit. Instruction
	// alignment makes the lowest address bits constant, so the default
	// skips bits 0-1.
	BitOffset int
	// TableEntries is the number of weight rows per sub-predictor (M).
	TableEntries int
	// WeightBits is the signed weight width; 4 in the paper, giving the
	// range [-7, 7].
	WeightBits int
	// Intervals are the seven tuned global-history intervals indexing
	// sub-predictors 1..7 (paper §3.6).
	Intervals []Interval
	// GEHLLengths are the geometric history lengths used instead of
	// Intervals when UseIntervals is false (the paper's "GEHL only"
	// ablation arm). Must have the same count as Intervals.
	GEHLLengths []int
	// HistBits is the global history capacity (the paper keeps 630 bits).
	HistBits int
	// LocalEntries × LocalBits sizes the local history table (256 × 10).
	LocalEntries int
	LocalBits    int
	// GlobalTargetBits is how many low target bits each resolved indirect
	// branch shifts into global history (implementation choice documented
	// in DESIGN.md; 0 reproduces the paper-literal conditional-only GHIST).
	GlobalTargetBits int
	// ThetaInit seeds the per-bit training thresholds.
	ThetaInit int
	// IBTB is the target buffer geometry.
	IBTB ibtb.Config
	// UseHierarchicalIBTB replaces the monolithic 64-way IBTB with the
	// two-level structure of the paper's §6 future work (see
	// ibtb.Hierarchy); IBTBHierarchy supplies its geometry.
	UseHierarchicalIBTB bool
	IBTBHierarchy       ibtb.HierarchyConfig

	// The five optimizations of paper §3.6, individually switchable to
	// regenerate the Fig. 10 ablation.
	UseLocal         bool // sub-predictor 0 indexed by local history
	UseIntervals     bool // interval histories (false = GEHL lengths)
	UseTransfer      bool // non-linear transfer function on weights
	UseAdaptiveTheta bool // adaptive threshold training
	UseSelective     bool // train/predict only bits that differ in the set
}

// DefaultConfig returns the paper's BLBP configuration (§4.2, Table 2):
// eight sub-predictors (one local-history, seven interval-history), 12
// predicted bits with 4-bit weights, a 630-bit global history, 256 10-bit
// local histories, and a 64-set × 64-way IBTB with a 128-entry region array.
func DefaultConfig() Config {
	return Config{
		K:            12,
		BitOffset:    2,
		TableEntries: 1024,
		WeightBits:   4,
		Intervals: []Interval{
			{0, 13}, {1, 33}, {23, 49}, {44, 85}, {77, 149}, {159, 270}, {252, 630},
		},
		GEHLLengths:      []int{5, 11, 24, 52, 113, 245, 530},
		HistBits:         631,
		LocalEntries:     256,
		LocalBits:        10,
		GlobalTargetBits: 2,
		ThetaInit:        18,
		IBTB:             ibtb.DefaultConfig(),
		IBTBHierarchy:    ibtb.DefaultHierarchyConfig(),
		UseLocal:         true,
		UseIntervals:     true,
		UseTransfer:      true,
		UseAdaptiveTheta: true,
		UseSelective:     true,
	}
}

// WithAllOptimizations returns a copy of c with the five §3.6 optimizations
// set per the arguments, in the order the paper's Fig. 10 discusses them.
func (c Config) WithAllOptimizations(local, intervals, transfer, adaptive, selective bool) Config {
	c.UseLocal = local
	c.UseIntervals = intervals
	c.UseTransfer = transfer
	c.UseAdaptiveTheta = adaptive
	c.UseSelective = selective
	return c
}

// SubPredictors returns N, the number of weight tables (1 local + the
// interval tables).
func (c Config) SubPredictors() int { return 1 + len(c.Intervals) }

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.K <= 0 || c.K > 32 {
		return fmt.Errorf("core: K=%d out of range (1..32)", c.K)
	}
	if c.BitOffset < 0 || c.BitOffset+c.K > 64 {
		return fmt.Errorf("core: BitOffset=%d with K=%d exceeds 64-bit targets", c.BitOffset, c.K)
	}
	if c.TableEntries <= 0 {
		return fmt.Errorf("core: TableEntries must be positive")
	}
	if c.WeightBits < 2 || c.WeightBits > int(maxWeightBits) {
		return fmt.Errorf("core: WeightBits=%d out of range (2..%d)", c.WeightBits, maxWeightBits)
	}
	if len(c.Intervals) == 0 {
		return fmt.Errorf("core: no history intervals")
	}
	// The packed weight image sums one 16-bit lane per predicted bit across
	// all sub-predictors without inter-lane carry suppression; the lane
	// bound next to laneMask shows this cap keeps every sum in its lane.
	if c.SubPredictors() > int(maxSubPredictors) {
		return fmt.Errorf("core: %d sub-predictors exceed the packed-sum limit of %d", c.SubPredictors(), maxSubPredictors)
	}
	if len(c.GEHLLengths) != len(c.Intervals) {
		return fmt.Errorf("core: %d GEHL lengths but %d intervals; counts must match", len(c.GEHLLengths), len(c.Intervals))
	}
	for i, iv := range c.Intervals {
		if iv.Lo < 0 || iv.Hi < iv.Lo || iv.Hi >= c.HistBits {
			return fmt.Errorf("core: interval %d [%d,%d] outside history of %d bits", i, iv.Lo, iv.Hi, c.HistBits)
		}
	}
	for i, l := range c.GEHLLengths {
		if l <= 0 || l > c.HistBits {
			return fmt.Errorf("core: GEHL length %d (#%d) outside history of %d bits", l, i, c.HistBits)
		}
	}
	if c.LocalEntries <= 0 || c.LocalBits <= 0 || c.LocalBits > 63 {
		return fmt.Errorf("core: invalid local history geometry %d×%d", c.LocalEntries, c.LocalBits)
	}
	if c.GlobalTargetBits < 0 || c.GlobalTargetBits > 8 {
		return fmt.Errorf("core: GlobalTargetBits=%d out of range (0..8)", c.GlobalTargetBits)
	}
	if c.ThetaInit <= 0 {
		return fmt.Errorf("core: ThetaInit must be positive")
	}
	return nil
}
