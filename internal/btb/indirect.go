package btb

import "blbp/internal/trace"

// Indirect adapts a BTB into the paper's baseline indirect predictor: the
// stored (last-taken) target for the branch PC is the prediction.
type Indirect struct {
	b *BTB
}

// NewIndirect returns the baseline predictor over a BTB with cfg.
func NewIndirect(cfg Config) *Indirect { return &Indirect{b: New(cfg)} }

// Name implements predictor.Indirect.
func (p *Indirect) Name() string {
	if p.b.cfg.Hysteresis {
		return "btb2bit"
	}
	return "btb"
}

// Predict implements predictor.Indirect.
func (p *Indirect) Predict(pc uint64) (uint64, bool) { return p.b.Lookup(pc) }

// Update implements predictor.Indirect.
func (p *Indirect) Update(pc, actual uint64) { p.b.Update(pc, actual) }

// OnCond implements predictor.Indirect (the BTB is history-free).
func (p *Indirect) OnCond(pc uint64, taken bool) {}

// OnOther implements predictor.Indirect.
func (p *Indirect) OnOther(pc, target uint64, bt trace.BranchType) {}

// StorageBits implements predictor.Indirect.
func (p *Indirect) StorageBits() int { return p.b.StorageBits() }

// Reset restores the freshly constructed state of the underlying BTB.
func (p *Indirect) Reset() { p.b.Reset() }
