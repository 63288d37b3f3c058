package sim

import (
	"fmt"

	"blbp/internal/cond"
	"blbp/internal/predictor"
	"blbp/internal/ras"
	"blbp/internal/snapshot"
	"blbp/internal/trace"
)

// PausedRun is the engine-side state of a partially replayed pass: the next
// unprocessed record index, the return address stack, and the accumulated
// counters. Together with the predictors' own snapshots (see
// predictor.Snapshotter) it is everything needed to resume a run in another
// process with bit-identical results: RunColumnsUntil → snapshot →
// RestorePausedRun → ResumeColumns equals one uninterrupted Run.
type PausedRun struct {
	next    int // index of the first unprocessed record
	stack   *ras.Stack
	shared  Result
	perPred []Result
}

// Next returns the index of the first unprocessed trace record.
func (pr *PausedRun) Next() int { return pr.next }

// validateRun is the shared argument check of the engine entry points.
func validateRun(cols *trace.Columns, cp cond.Predictor, indirects []predictor.Indirect) error {
	if cols == nil {
		return fmt.Errorf("sim: nil trace")
	}
	if cp == nil {
		return fmt.Errorf("sim: nil conditional predictor")
	}
	if len(indirects) == 0 {
		return fmt.Errorf("sim: no indirect predictors")
	}
	if err := cols.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// runRange replays records [pr.next, stop) of the trace run by run,
// advancing pr. The first run starts at pr.next, which may lie inside a
// same-type run of the trace, and the last is cut at stop; at full range
// ([0, Len)) neither applies, so Run and the resume entry points share one
// loop.
func runRange(cols *trace.Columns, cp cond.Predictor, indirects []predictor.Indirect, pr *PausedRun, stop int) {
	stack := pr.stack
	shared := &pr.shared
	perPred := pr.perPred
	tt, hasTT := cp.(cond.TargetTrainer)

	for s, en := pr.next, 0; s < stop; s = en {
		en = min(cols.RunEnd(s), stop)
		switch bt := cols.At(s).Type; bt {
		case trace.CondDirect:
			shared.CondBranches += int64(en - s)
			for i := s; i < en; i++ {
				r := cols.At(i)
				if cp.Predict(r.PC) != r.Taken {
					shared.CondMispredicts++
				}
				if hasTT {
					tt.TrainWithTarget(r.PC, r.Taken, r.Target)
				} else {
					cp.Train(r.PC, r.Taken)
				}
				cp.UpdateHistory(r.PC, r.Taken)
				for _, ip := range indirects {
					ip.OnCond(r.PC, r.Taken)
				}
			}

		case trace.IndirectJump, trace.IndirectCall:
			isCall := bt == trace.IndirectCall
			for i := s; i < en; i++ {
				r := cols.At(i)
				for j := range indirects {
					ip := indirects[j]
					perPred[j].IndirectBranches++
					pred, ok := ip.Predict(r.PC)
					if !ok {
						perPred[j].NoPrediction++
						perPred[j].IndirectMispredicts++
					} else if pred != r.Target {
						perPred[j].IndirectMispredicts++
					}
					ip.Update(r.PC, r.Target)
				}
				if isCall {
					stack.Push(r.PC + instructionSize)
				}
				cp.OnOther(r.PC, r.Target, bt)
			}

		case trace.Return:
			shared.Returns += int64(en - s)
			for i := s; i < en; i++ {
				r := cols.At(i)
				if !stack.Predict(r.Target) {
					shared.ReturnMispredicts++
				}
				cp.OnOther(r.PC, r.Target, trace.Return)
				for _, ip := range indirects {
					ip.OnOther(r.PC, r.Target, trace.Return)
				}
			}

		case trace.DirectCall:
			for i := s; i < en; i++ {
				r := cols.At(i)
				stack.Push(r.PC + instructionSize)
				cp.OnOther(r.PC, r.Target, trace.DirectCall)
				for _, ip := range indirects {
					ip.OnOther(r.PC, r.Target, trace.DirectCall)
				}
			}

		case trace.UncondDirect:
			for i := s; i < en; i++ {
				r := cols.At(i)
				cp.OnOther(r.PC, r.Target, trace.UncondDirect)
				for _, ip := range indirects {
					ip.OnOther(r.PC, r.Target, trace.UncondDirect)
				}
			}
		}
	}
	pr.next = stop
}

// finalize closes out a fully replayed run: the shared instruction count
// and the per-predictor identity and shared-counter copies.
func finalize(cols *trace.Columns, indirects []predictor.Indirect, pr *PausedRun) []Result {
	pr.shared.Instructions = cols.Instructions()
	perPred := pr.perPred
	for i, ip := range indirects {
		perPred[i].Trace = cols.Name
		perPred[i].Predictor = ip.Name()
		perPred[i].Instructions = pr.shared.Instructions
		perPred[i].CondBranches = pr.shared.CondBranches
		perPred[i].CondMispredicts = pr.shared.CondMispredicts
		perPred[i].Returns = pr.shared.Returns
		perPred[i].ReturnMispredicts = pr.shared.ReturnMispredicts
	}
	return perPred
}

// RunColumnsUntil replays records [0, stop) and returns the paused engine
// state (stop is clamped to the trace length). The predictors are left
// mid-run; serialize them alongside the PausedRun to checkpoint the pass.
func RunColumnsUntil(cols *trace.Columns, cp cond.Predictor, indirects []predictor.Indirect, opts Options, stop int) (*PausedRun, error) {
	if err := validateRun(cols, cp, indirects); err != nil {
		return nil, err
	}
	if stop < 0 {
		stop = 0
	}
	if n := cols.Len(); stop > n {
		stop = n
	}
	pr := &PausedRun{stack: ras.New(opts.rasDepth()), perPred: make([]Result, len(indirects))}
	runRange(cols, cp, indirects, pr, stop)
	return pr, nil
}

// ResumeColumns replays the remaining records of a paused run to completion
// and returns the final results. cp and indirects must hold the same state
// they had when the run paused (the same instances, or fresh ones restored
// from snapshots); the combined outcome is bit-identical to one
// uninterrupted Run over the whole trace.
func ResumeColumns(cols *trace.Columns, cp cond.Predictor, indirects []predictor.Indirect, pr *PausedRun) ([]Result, error) {
	if err := validateRun(cols, cp, indirects); err != nil {
		return nil, err
	}
	if pr == nil {
		return nil, fmt.Errorf("sim: nil paused run")
	}
	if len(pr.perPred) != len(indirects) {
		return nil, fmt.Errorf("sim: paused run tracks %d indirect predictors, resuming with %d", len(pr.perPred), len(indirects))
	}
	if pr.next > cols.Len() {
		return nil, fmt.Errorf("sim: paused at record %d beyond trace of %d", pr.next, cols.Len())
	}
	runRange(cols, cp, indirects, pr, cols.Len())
	return finalize(cols, indirects, pr), nil
}

// maxSnapshotPasses bounds decoded per-predictor result counts so a corrupt
// count cannot drive preallocation.
const maxSnapshotPasses = 1 << 16

// maxRASCapacity bounds the decoded return-address-stack capacity.
const maxRASCapacity = 1 << 20

// EncodeState serializes the paused engine state into a snapshot section.
func (pr *PausedRun) EncodeState(e *snapshot.Enc) {
	e.Int(pr.next)
	pr.stack.EncodeState(e)
	encodeResult(e, &pr.shared)
	e.Int(len(pr.perPred))
	for i := range pr.perPred {
		encodeResult(e, &pr.perPred[i])
	}
}

// RestorePausedRun rebuilds a paused run from state captured by
// EncodeState.
func RestorePausedRun(d *snapshot.Dec) (*PausedRun, error) {
	next := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if next < 0 {
		return nil, fmt.Errorf("%w: negative resume index", snapshot.ErrCorrupt)
	}
	stack, err := ras.RestoreStack(d, maxRASCapacity)
	if err != nil {
		return nil, err
	}
	pr := &PausedRun{next: next, stack: stack}
	if err := decodeResult(d, &pr.shared); err != nil {
		return nil, err
	}
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n <= 0 || n > maxSnapshotPasses {
		return nil, fmt.Errorf("%w: paused run tracks %d predictors", snapshot.ErrCorrupt, n)
	}
	pr.perPred = make([]Result, n)
	for i := range pr.perPred {
		if err := decodeResult(d, &pr.perPred[i]); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// encodeResult serializes a Result's counters. The identity strings are
// excluded: they are assigned at finalize from the trace and predictors.
func encodeResult(e *snapshot.Enc, r *Result) {
	e.I64(r.Instructions)
	e.I64(r.CondBranches)
	e.I64(r.CondMispredicts)
	e.I64(r.IndirectBranches)
	e.I64(r.IndirectMispredicts)
	e.I64(r.NoPrediction)
	e.I64(r.Returns)
	e.I64(r.ReturnMispredicts)
}

func decodeResult(d *snapshot.Dec, r *Result) error {
	r.Instructions = d.I64()
	r.CondBranches = d.I64()
	r.CondMispredicts = d.I64()
	r.IndirectBranches = d.I64()
	r.IndirectMispredicts = d.I64()
	r.NoPrediction = d.I64()
	r.Returns = d.I64()
	r.ReturnMispredicts = d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	if r.Instructions < 0 || r.CondBranches < 0 || r.CondMispredicts < 0 ||
		r.IndirectBranches < 0 || r.IndirectMispredicts < 0 || r.NoPrediction < 0 ||
		r.Returns < 0 || r.ReturnMispredicts < 0 {
		return fmt.Errorf("%w: negative result counter", snapshot.ErrCorrupt)
	}
	return nil
}
