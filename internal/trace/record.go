// Package trace defines the branch-trace model used throughout the
// simulator: a trace is a sequence of control-flow records, each describing
// one executed branch instruction plus the number of non-branch instructions
// that preceded it.
//
// The model mirrors the Championship Branch Prediction (CBP-5) trace format
// the paper's infrastructure consumes: only branches appear explicitly;
// straight-line instructions are carried as a count so that MPKI
// (mispredictions per kilo-instruction) can be computed exactly.
package trace

import "fmt"

// BranchType classifies a control-flow instruction.
type BranchType uint8

const (
	// CondDirect is a conditional branch with a statically known target.
	CondDirect BranchType = iota
	// UncondDirect is an unconditional direct jump.
	UncondDirect
	// DirectCall is a direct function call (pushes a return address).
	DirectCall
	// IndirectJump is an unconditional jump through a register or memory
	// operand (switch tables, interpreter dispatch, tail calls).
	IndirectJump
	// IndirectCall is a call through a register or memory operand
	// (virtual dispatch, function pointers).
	IndirectCall
	// Return is a function return (predicted by a return address stack).
	Return

	numBranchTypes = 6
)

// String returns a short human-readable name for the branch type.
func (t BranchType) String() string {
	switch t {
	case CondDirect:
		return "cond"
	case UncondDirect:
		return "jump"
	case DirectCall:
		return "call"
	case IndirectJump:
		return "ind-jump"
	case IndirectCall:
		return "ind-call"
	case Return:
		return "return"
	default:
		return fmt.Sprintf("BranchType(%d)", uint8(t))
	}
}

// Valid reports whether t is one of the defined branch types.
func (t BranchType) Valid() bool { return t < numBranchTypes }

// IsIndirect reports whether the branch requires target prediction by an
// indirect branch predictor. Returns are excluded: like the paper (and all
// modern hardware) they are handled by a return address stack.
func (t BranchType) IsIndirect() bool {
	return t == IndirectJump || t == IndirectCall
}

// IsCall reports whether the branch pushes a return address.
func (t BranchType) IsCall() bool {
	return t == DirectCall || t == IndirectCall
}

// IsConditional reports whether the branch has a taken/not-taken outcome to
// predict.
func (t BranchType) IsConditional() bool { return t == CondDirect }

// Record describes one executed branch.
type Record struct {
	// PC is the address of the branch instruction.
	PC uint64
	// Target is the address control flow transferred to. For a not-taken
	// conditional branch it is the fall-through address.
	Target uint64
	// InstrBefore is the number of non-branch instructions executed since
	// the previous record (or since the start of the trace). The branch
	// itself is not included, so one record accounts for InstrBefore+1
	// instructions.
	InstrBefore uint32
	// Type is the branch classification.
	Type BranchType
	// Taken is the branch outcome. It is always true for unconditional
	// branch types.
	Taken bool
}

// Instructions returns the number of instructions this record accounts for,
// including the branch itself.
func (r Record) Instructions() int64 { return int64(r.InstrBefore) + 1 }

// Validate checks internal consistency of the record.
func (r Record) Validate() error {
	if !r.Type.Valid() {
		return fmt.Errorf("trace: invalid branch type %d", uint8(r.Type))
	}
	if !r.Type.IsConditional() && !r.Taken {
		return fmt.Errorf("trace: %v branch at pc=%#x marked not taken", r.Type, r.PC)
	}
	return nil
}
