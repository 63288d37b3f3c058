// Package cascaded implements Driesen & Hölzle's cascaded indirect branch
// predictor (MICRO 1998), another classical baseline from the paper's
// related work: a cheap first-stage BTB handles the easy (monomorphic)
// branches and acts as a filter, while a tagged history-indexed second
// stage is reserved for branches the first stage has proven unable to
// predict. The filter keeps easy branches from wasting second-stage
// capacity — the insight later generalized by multi-stage and TAGE-style
// predictors.
package cascaded

import (
	"blbp/internal/btb"
	"blbp/internal/hashing"
	"blbp/internal/trace"
)

// Config parameterizes a cascaded predictor.
type Config struct {
	// Stage1 is the filter BTB geometry.
	Stage1 btb.Config
	// Stage2Entries is the history-indexed second-stage size.
	Stage2Entries int
	// Stage2TagBits is the second stage's partial tag width.
	Stage2TagBits int
	// HistBits is the target-history register width for stage-2 indexing.
	HistBits int
}

// DefaultConfig returns a ~64 KB-class two-stage cascade.
func DefaultConfig() Config {
	return Config{
		Stage1:        btb.Config{Entries: 4096, Assoc: 1, TagBits: 8, TargetBits: 44},
		Stage2Entries: 8192,
		Stage2TagBits: 10,
		HistBits:      14,
	}
}

type entry struct {
	tag    uint64
	target uint64
	valid  bool
}

// Predictor is the cascaded predictor.
type Predictor struct {
	cfg     Config
	stage1  *btb.BTB
	stage2  []entry
	hist    uint64
	histMax uint64

	// lastStage2Hit caches prediction state for the filtering rule.
	lastPC    uint64
	lastOK    bool
	lastS1    uint64
	lastS1Hit bool
	lastS2    uint64
	lastS2Hit bool
}

// New constructs a cascaded predictor; it panics on invalid configuration.
func New(cfg Config) *Predictor {
	if cfg.Stage2Entries <= 0 {
		panic("cascaded: Stage2Entries must be positive")
	}
	if cfg.HistBits <= 0 || cfg.HistBits > 63 {
		panic("cascaded: HistBits out of range")
	}
	return &Predictor{
		cfg:     cfg,
		stage1:  btb.New(cfg.Stage1),
		stage2:  make([]entry, cfg.Stage2Entries),
		histMax: 1<<uint(cfg.HistBits) - 1,
	}
}

// Reset restores the freshly constructed state: both stages empty, an
// empty history register, and no pending prediction. Run plans recycle a
// pass's predictors through it between workloads.
func (p *Predictor) Reset() {
	p.stage1.Reset()
	for i := range p.stage2 {
		p.stage2[i] = entry{}
	}
	p.hist = 0
	p.lastPC, p.lastOK = 0, false
	p.lastS1, p.lastS1Hit = 0, false
	p.lastS2, p.lastS2Hit = 0, false
}

// Name implements predictor.Indirect.
func (p *Predictor) Name() string { return "cascaded" }

func (p *Predictor) stage2IndexTag(pc uint64) (int, uint64) {
	h := hashing.Combine(hashing.Mix64(pc), p.hist)
	return hashing.Index(h, p.cfg.Stage2Entries), hashing.Tag(h, p.cfg.Stage2TagBits)
}

// Predict implements predictor.Indirect: the second stage overrides the
// first when it hits.
func (p *Predictor) Predict(pc uint64) (uint64, bool) {
	p.lastPC, p.lastOK = pc, true
	p.lastS1, p.lastS1Hit = p.stage1.Lookup(pc)
	idx, tag := p.stage2IndexTag(pc)
	e := &p.stage2[idx]
	p.lastS2Hit = e.valid && e.tag == tag
	if p.lastS2Hit {
		p.lastS2 = e.target
		return e.target, true
	}
	if p.lastS1Hit {
		return p.lastS1, true
	}
	return 0, false
}

// Update implements predictor.Indirect: stage 1 always learns (last-taken);
// stage 2 only allocates when stage 1 mispredicted — the cascade filter.
func (p *Predictor) Update(pc, actual uint64) {
	if !p.lastOK || p.lastPC != pc {
		p.Predict(pc)
	}
	p.lastOK = false
	stage1Wrong := !p.lastS1Hit || p.lastS1 != actual
	stage2Wrong := !p.lastS2Hit || p.lastS2 != actual
	if stage1Wrong && stage2Wrong {
		idx, tag := p.stage2IndexTag(pc)
		p.stage2[idx] = entry{tag: tag, target: actual, valid: true}
	}
	p.stage1.Update(pc, actual)
	p.hist = (p.hist<<2 | hashing.Mix64(actual)&3) & p.histMax
}

// OnCond implements predictor.Indirect.
func (p *Predictor) OnCond(pc uint64, taken bool) {
	b := uint64(0)
	if taken {
		b = 1
	}
	p.hist = (p.hist<<1 | b) & p.histMax
	p.lastOK = false
}

// OnOther implements predictor.Indirect.
func (p *Predictor) OnOther(pc, target uint64, bt trace.BranchType) {}

// StorageBits implements predictor.Indirect.
func (p *Predictor) StorageBits() int {
	return p.stage1.StorageBits() +
		p.cfg.Stage2Entries*(1+p.cfg.Stage2TagBits+44) +
		p.cfg.HistBits
}
