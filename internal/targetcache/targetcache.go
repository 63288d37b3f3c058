// Package targetcache implements Chang, Hao & Patt's Target Cache (ISCA
// 1997), the classical history-indexed indirect predictor the paper's
// related-work section builds on: a tagged cache indexed by the XOR of the
// branch address with a register of recent target-history bits, so different
// target histories of one branch map to different entries.
//
// It is included as an additional reference point between the last-taken
// BTB and the modern multi-table predictors (ITTAGE, BLBP).
package targetcache

import (
	"blbp/internal/hashing"
	"blbp/internal/trace"
)

// Config parameterizes a target cache.
type Config struct {
	// Entries is the cache size (power of two recommended).
	Entries int
	// TagBits is the partial tag width (0 = tagless).
	TagBits int
	// HistBits is the width of the target-history register.
	HistBits int
	// TargetBitsPerUpdate is how many hashed target bits each resolved
	// indirect branch shifts into the history register.
	TargetBitsPerUpdate int
	// IncludeCond also records conditional outcomes in the history
	// register (Chang et al.'s pattern-based variant).
	IncludeCond bool
}

// DefaultConfig returns a ~64 KB-class target cache: 8K entries with 9-bit
// tags and a 16-bit target history.
func DefaultConfig() Config {
	return Config{
		Entries:             8192,
		TagBits:             9,
		HistBits:            16,
		TargetBitsPerUpdate: 2,
		IncludeCond:         true,
	}
}

type entry struct {
	tag    uint64
	target uint64
	valid  bool
}

// Cache is the target cache predictor.
type Cache struct {
	cfg     Config
	entries []entry
	hist    uint64
	histMax uint64
}

// New constructs a target cache; it panics on invalid configuration.
func New(cfg Config) *Cache {
	if cfg.Entries <= 0 {
		panic("targetcache: Entries must be positive")
	}
	if cfg.HistBits <= 0 || cfg.HistBits > 63 {
		panic("targetcache: HistBits out of range")
	}
	if cfg.TagBits < 0 || cfg.TagBits > 32 {
		panic("targetcache: TagBits out of range")
	}
	if cfg.TargetBitsPerUpdate <= 0 || cfg.TargetBitsPerUpdate > 8 {
		panic("targetcache: TargetBitsPerUpdate out of range")
	}
	return &Cache{
		cfg:     cfg,
		entries: make([]entry, cfg.Entries),
		histMax: 1<<uint(cfg.HistBits) - 1,
	}
}

// Reset restores the freshly constructed state: every entry invalid and
// an empty history register. Run plans recycle a pass's predictors through
// it between workloads.
func (c *Cache) Reset() {
	for i := range c.entries {
		c.entries[i] = entry{}
	}
	c.hist = 0
}

// Name implements predictor.Indirect.
func (c *Cache) Name() string { return "targetcache" }

func (c *Cache) indexAndTag(pc uint64) (int, uint64) {
	h := hashing.Combine(hashing.Mix64(pc), c.hist)
	return hashing.Index(h, c.cfg.Entries), hashing.Tag(h, c.cfg.TagBits)
}

// Predict implements predictor.Indirect.
func (c *Cache) Predict(pc uint64) (uint64, bool) {
	idx, tag := c.indexAndTag(pc)
	e := &c.entries[idx]
	if !e.valid || (c.cfg.TagBits > 0 && e.tag != tag) {
		return 0, false
	}
	return e.target, true
}

// Update implements predictor.Indirect: install the resolved target under
// the prediction-time history, then advance the history register.
func (c *Cache) Update(pc, actual uint64) {
	idx, tag := c.indexAndTag(pc)
	c.entries[idx] = entry{tag: tag, target: actual, valid: true}
	c.shift(hashing.Mix64(actual), c.cfg.TargetBitsPerUpdate)
}

func (c *Cache) shift(bits uint64, n int) {
	for i := 0; i < n; i++ {
		c.hist = (c.hist<<1 | bits>>uint(i)&1) & c.histMax
	}
}

// OnCond implements predictor.Indirect.
func (c *Cache) OnCond(pc uint64, taken bool) {
	if !c.cfg.IncludeCond {
		return
	}
	b := uint64(0)
	if taken {
		b = 1
	}
	c.hist = (c.hist<<1 | b) & c.histMax
}

// OnOther implements predictor.Indirect.
func (c *Cache) OnOther(pc, target uint64, bt trace.BranchType) {}

// StorageBits implements predictor.Indirect.
func (c *Cache) StorageBits() int {
	return c.cfg.Entries*(1+c.cfg.TagBits+44) + c.cfg.HistBits
}
