// Package cond implements conditional (taken/not-taken) branch predictors.
// The simulation harness uses a hashed perceptron predictor for conditional
// branches, as the paper does (§4.2), and the VPC indirect predictor drives
// the same perceptron through virtual PCs. TAGE pairs with ITTAGE as the
// COTTAGE configuration, and a bimodal predictor serves as the tests' cheap
// reference.
package cond

import "blbp/internal/trace"

// Predictor is the interface the simulation engine drives for conditional
// branches. The engine's per-branch contract is:
//
//	taken := p.Predict(pc)
//	p.Train(pc, actual)        // with history still in prediction state
//	p.UpdateHistory(pc, actual)
//
// Non-conditional control transfers are reported through OnOther so
// predictors can fold path/target information into their histories.
type Predictor interface {
	Name() string
	Predict(pc uint64) bool
	Train(pc uint64, taken bool)
	UpdateHistory(pc uint64, taken bool)
	OnOther(pc, target uint64, bt trace.BranchType)
	StorageBits() int
}

// TargetTrainer is an optional extension of Predictor: implementations
// receive the conditional branch's resolved target address along with the
// outcome (the fall-through address when not taken). The engine prefers
// TrainWithTarget over Train when a predictor implements it. Target-based
// conditional predictors (the combined BLBP of the paper's future work)
// need the address; classical direction predictors ignore it.
type TargetTrainer interface {
	TrainWithTarget(pc uint64, taken bool, target uint64)
}

// counter2 is a 2-bit saturating counter helper. Values 0..3; >= 2 predicts
// taken.
type counter2 uint8

func (c counter2) taken() bool { return c >= 2 }

// update returns the counter stepped toward the outcome, saturating at
// the 2-bit bounds.
//
//blbp:clamp
func (c counter2) update(taken bool) counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}
