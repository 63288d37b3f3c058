package sim

import (
	"fmt"

	"blbp/internal/cond"
	"blbp/internal/predictor"
	"blbp/internal/ras"
	"blbp/internal/trace"
)

// referenceRun is the differential oracle for the engine: the original
// record-at-a-time loop, walking cols.Record(i) one index at a time with a
// per-record type switch and no use of the segmentation. Run (and every
// path built on runRange) must reproduce its Results bit for bit.
func referenceRun(cols *trace.Columns, cp cond.Predictor, indirects []predictor.Indirect, opts Options) ([]Result, error) {
	if cols == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	for i := 0; i < cols.Len(); i++ {
		if err := cols.Record(i).Validate(); err != nil {
			return nil, fmt.Errorf("sim: record %d: %w", i, err)
		}
	}
	stack := ras.New(opts.rasDepth())
	var shared Result
	perPred := make([]Result, len(indirects))
	tt, hasTT := cp.(cond.TargetTrainer)

	for ri := 0; ri < cols.Len(); ri++ {
		r := cols.Record(ri)
		shared.Instructions += r.Instructions()

		switch r.Type {
		case trace.CondDirect:
			shared.CondBranches++
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

		case trace.IndirectJump, trace.IndirectCall:
			for i, ip := range indirects {
				perPred[i].IndirectBranches++
				pred, ok := ip.Predict(r.PC)
				if !ok {
					perPred[i].NoPrediction++
					perPred[i].IndirectMispredicts++
				} else if pred != r.Target {
					perPred[i].IndirectMispredicts++
				}
				ip.Update(r.PC, r.Target)
			}
			if r.Type == trace.IndirectCall {
				stack.Push(r.PC + instructionSize)
			}
			cp.OnOther(r.PC, r.Target, r.Type)

		case trace.Return:
			shared.Returns++
			if !stack.Predict(r.Target) {
				shared.ReturnMispredicts++
			}
			cp.OnOther(r.PC, r.Target, r.Type)
			for _, ip := range indirects {
				ip.OnOther(r.PC, r.Target, r.Type)
			}

		case trace.DirectCall:
			stack.Push(r.PC + instructionSize)
			cp.OnOther(r.PC, r.Target, r.Type)
			for _, ip := range indirects {
				ip.OnOther(r.PC, r.Target, r.Type)
			}

		case trace.UncondDirect:
			cp.OnOther(r.PC, r.Target, r.Type)
			for _, ip := range indirects {
				ip.OnOther(r.PC, r.Target, r.Type)
			}
		}
	}

	for i, ip := range indirects {
		perPred[i].Trace = cols.Name
		perPred[i].Predictor = ip.Name()
		perPred[i].Instructions = shared.Instructions
		perPred[i].CondBranches = shared.CondBranches
		perPred[i].CondMispredicts = shared.CondMispredicts
		perPred[i].Returns = shared.Returns
		perPred[i].ReturnMispredicts = shared.ReturnMispredicts
	}
	return perPred, nil
}
