package sim

import (
	"fmt"
	"sync"

	"blbp/internal/cond"
	"blbp/internal/predictor"
	"blbp/internal/ras"
	"blbp/internal/trace"
)

// Tape is the shared, replayable side of simulating one trace. Everything a
// pass observes that is a function of the trace alone — per-record
// instruction counts, the conditional outcome stream, the RAS push/pop
// sequence — is identical across every pass over that trace, so the tape
// precomputes it once: the aggregate totals at construction, and the
// conditional and return-stack counters once per (conditional
// configuration key, RAS depth). Passes that declare a shared conditional
// configuration then replay the tape, driving only their indirect
// predictors over the record stream, instead of re-simulating the
// conditional and return sides.
//
// The replay loop steps through the trace one maximal same-type run at a
// time (trace.Columns.RunEnd), feeding predictors whole same-class runs at
// a time.
//
// A Tape is safe for concurrent use: the scheduler runs many passes of the
// same workload at once and they all share one tape.
type Tape struct {
	cols *trace.Columns

	mu    sync.Mutex
	memos map[memoKey]*memo
}

// memoKey names one shared side: a conditional configuration key at one
// return-stack depth.
type memoKey struct {
	cond     string
	rasDepth int
}

// memo holds one key's conditional and return counters. Once gives
// single-flight semantics: concurrent passes under the same key block until
// the first has simulated the shared side, then share it.
type memo struct {
	once   sync.Once
	shared Result
}

// NewTape validates the trace and builds a tape over it. The pass-invariant
// totals are read from the columns' precomputed counts, so construction is
// O(1) after validation; the conditional and RAS sides are filled in lazily
// on first use.
func NewTape(cols *trace.Columns) (*Tape, error) {
	if cols == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	if err := cols.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Tape{cols: cols, memos: make(map[memoKey]*memo)}, nil
}

// Columns returns the underlying columnar trace (shared; callers must not
// mutate it).
func (tp *Tape) Columns() *trace.Columns { return tp.cols }

// Instructions returns the trace's total instruction count.
func (tp *Tape) Instructions() int64 { return tp.cols.Instructions() }

// sharedSide returns the conditional and return-stack counters of the
// configuration named by condKey at the given RAS depth, running the
// engine's own loop (runRange) with cp and no indirect predictors on the
// key's first use. Callers guarantee that every cp arriving under one key
// is a fresh or Reset predictor of the identical configuration; later
// arrivals are left untouched.
func (tp *Tape) sharedSide(condKey string, cp cond.Predictor, rasDepth int) Result {
	k := memoKey{cond: condKey, rasDepth: rasDepth}
	tp.mu.Lock()
	m := tp.memos[k]
	if m == nil {
		m = &memo{}
		tp.memos[k] = m
	}
	tp.mu.Unlock()
	m.once.Do(func() {
		pr := &PausedRun{stack: ras.New(rasDepth)}
		runRange(tp.cols, cp, nil, pr, tp.cols.Len())
		m.shared = pr.shared
	})
	return m.shared
}

// Run simulates one pass over the tape's trace. A non-empty condKey names
// the pass's conditional predictor configuration: the conditional and
// return-stack sides are then sourced from the tape (simulated once per
// key and depth, shared by every pass that declares them) and only the
// indirect predictors replay the record stream. With condKey == "" the pass
// owns conditional state — VPC and the consolidated predictor share state
// between the two sides — and the full engine runs instead.
//
// Every caller passing the same condKey must construct cp identically;
// results are bit-identical to Run because the conditional predictor, the
// RAS, and the indirect predictors never exchange state within a pass. The
// same independence makes the run-level loop interchange here legal: each
// indirect predictor consumes a whole same-type run before the next
// predictor starts it, which cannot be observed when predictors share
// nothing. Predictors implementing predictor.SpanFeeder consume runs
// through one call instead of one interface call per record.
func (tp *Tape) Run(condKey string, cp cond.Predictor, indirects []predictor.Indirect, opts Options) ([]Result, error) {
	if condKey == "" {
		return Run(tp.cols, cp, indirects, opts)
	}
	if cp == nil {
		return nil, fmt.Errorf("sim: nil conditional predictor")
	}
	if len(indirects) == 0 {
		return nil, fmt.Errorf("sim: no indirect predictors")
	}
	shared := tp.sharedSide(condKey, cp, opts.rasDepth())

	perPred := make([]Result, len(indirects))
	spans := make([]predictor.SpanFeeder, len(indirects))
	for i, ip := range indirects {
		if sf, ok := ip.(predictor.SpanFeeder); ok {
			spans[i] = sf
		}
	}
	cols := tp.cols
	for s, end := 0, 0; s < cols.Len(); s = end {
		end = cols.RunEnd(s)
		switch bt := cols.At(s).Type; bt {
		case trace.CondDirect:
			for j, ip := range indirects {
				if spans[j] != nil {
					spans[j].OnCondSpan(cols, s, end)
					continue
				}
				for i := s; i < end; i++ {
					r := cols.At(i)
					ip.OnCond(r.PC, r.Taken)
				}
			}
		case trace.IndirectJump, trace.IndirectCall:
			for j, ip := range indirects {
				var mispredicts, noPred int64
				for i := s; i < end; i++ {
					r := cols.At(i)
					pred, ok := ip.Predict(r.PC)
					if !ok {
						noPred++
						mispredicts++
					} else if pred != r.Target {
						mispredicts++
					}
					ip.Update(r.PC, r.Target)
				}
				perPred[j].IndirectBranches += int64(end - s)
				perPred[j].IndirectMispredicts += mispredicts
				perPred[j].NoPrediction += noPred
			}
		default: // Return, DirectCall, UncondDirect
			for j, ip := range indirects {
				if spans[j] != nil {
					spans[j].OnOtherSpan(cols, s, end, bt)
					continue
				}
				for i := s; i < end; i++ {
					r := cols.At(i)
					ip.OnOther(r.PC, r.Target, bt)
				}
			}
		}
	}

	return finalize(tp.cols, indirects, &PausedRun{shared: shared, perPred: perPred}), nil
}
