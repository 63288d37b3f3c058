// Package combined implements the consolidation the paper's future-work
// section (§6) proposes: using the BLBP machinery to predict conditional
// branches as well as indirect branches, the way VPC consolidates indirect
// prediction into the conditional predictor — but in the opposite
// direction, with one bit-level target predictor serving both.
//
// A conditional branch at pc is modeled as an indirect branch with two
// potential targets, the fall-through address (pc+4, the engine's
// instruction-size convention) and the taken target. Both enter the IBTB as
// they are observed; prediction is then BLBP's usual bit-level selection
// between the two candidates, and the direction is "taken" exactly when the
// selected target is not the fall-through.
//
// One Predictor instance is driven in both engine roles at once: as the
// pass's conditional predictor (cond.Predictor + cond.TargetTrainer) and as
// its indirect predictor (predictor.Indirect). OnCond is deliberately a
// no-op — in consolidated mode the conditional-side training already
// advances the shared history through core.Update.
package combined

import (
	"blbp/internal/core"
	"blbp/internal/trace"
)

// instructionSize matches the engine's fall-through convention.
const instructionSize = 4

// Predictor is the consolidated conditional+indirect predictor.
type Predictor struct {
	core *core.BLBP
}

// New constructs a consolidated predictor over a BLBP core configuration.
func New(cfg core.Config) *Predictor {
	return &Predictor{core: core.New(cfg)}
}

// Reset restores the freshly constructed state of the shared BLBP core.
// Run plans recycle a pass's predictors through it between workloads.
func (p *Predictor) Reset() { p.core.Reset() }

// Name implements predictor.Indirect and labels cond-side reporting.
func (p *Predictor) Name() string { return "combined" }

// --- Conditional-predictor role -----------------------------------------

// Predict implements cond.Predictor: select between the branch's known
// targets; an IBTB miss (or a fall-through selection) predicts not taken.
func (p *Predictor) Predict(pc uint64) bool {
	target, ok := p.core.Predict(pc)
	if !ok {
		return false
	}
	return target != pc+instructionSize
}

// Train implements cond.Predictor. Without a target address only the
// not-taken case is fully specified; taken branches fall back to a
// sentinel target derived from the PC so out-of-contract callers still
// exercise a two-target distribution. The engine uses TrainWithTarget.
func (p *Predictor) Train(pc uint64, taken bool) {
	if taken {
		p.TrainWithTarget(pc, true, pc+0x40)
		return
	}
	p.TrainWithTarget(pc, false, pc+instructionSize)
}

// TrainWithTarget implements cond.TargetTrainer: the resolved control-flow
// edge (fall-through or taken target) is trained as the branch's actual
// target.
func (p *Predictor) TrainWithTarget(pc uint64, taken bool, target uint64) {
	actual := pc + instructionSize
	if taken {
		actual = target
	}
	p.core.Update(pc, actual)
}

// UpdateHistory implements cond.Predictor as a no-op: core.Update already
// advanced the shared history with the resolved edge's target bits, which
// subsumes the direction bit.
func (p *Predictor) UpdateHistory(pc uint64, taken bool) {}

// OnOther implements both roles' other-control-flow hook.
func (p *Predictor) OnOther(pc, target uint64, bt trace.BranchType) {
	p.core.OnOther(pc, target, bt)
}

// --- Indirect-predictor role ----------------------------------------------

// PredictTarget is the indirect-role prediction. (The conditional role owns
// the Predict name, so predictor.Indirect is satisfied through the Indirect
// adapter below.)
func (p *Predictor) PredictTarget(pc uint64) (uint64, bool) { return p.core.Predict(pc) }

// UpdateTarget trains the indirect role with a resolved target.
func (p *Predictor) UpdateTarget(pc, actual uint64) { p.core.Update(pc, actual) }

// StorageBits reports the single consolidated budget.
func (p *Predictor) StorageBits() int { return p.core.StorageBits() }

// Indirect returns the predictor.Indirect view of the consolidated
// structure. Pass the same Predictor as the engine's conditional predictor.
func (p *Predictor) Indirect() *IndirectView { return &IndirectView{p: p} }

// IndirectView adapts Predictor to predictor.Indirect.
type IndirectView struct {
	p *Predictor
}

// Name implements predictor.Indirect.
func (v *IndirectView) Name() string { return "combined" }

// Predict implements predictor.Indirect.
func (v *IndirectView) Predict(pc uint64) (uint64, bool) { return v.p.PredictTarget(pc) }

// Update implements predictor.Indirect.
func (v *IndirectView) Update(pc, actual uint64) { v.p.UpdateTarget(pc, actual) }

// OnCond implements predictor.Indirect as a no-op: in consolidated mode the
// conditional role already folded the outcome into the shared history.
func (v *IndirectView) OnCond(pc uint64, taken bool) {}

// OnOther implements predictor.Indirect as a no-op: the conditional role
// receives OnOther from the engine already; doing it twice would
// double-shift the shared history.
func (v *IndirectView) OnOther(pc, target uint64, bt trace.BranchType) {}

// StorageBits implements predictor.Indirect.
func (v *IndirectView) StorageBits() int { return v.p.StorageBits() }

// Reset resets the underlying consolidated predictor: the view shares its
// state, so resetting either face resets the whole structure.
func (v *IndirectView) Reset() { v.p.Reset() }
