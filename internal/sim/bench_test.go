package sim

import (
	"testing"

	"blbp/internal/btb"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/ittage"
	"blbp/internal/predictor"
	"blbp/internal/trace"
	"blbp/internal/vpc"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

// BenchmarkSimRun drives one full engine pass (hashed perceptron + BLBP)
// over a mixed trace through Run. ns/op is per record.
func BenchmarkSimRun(b *testing.B) {
	const nRec = 1 << 16
	tr := genEquivTrace(1234, nRec, 0x62)
	if err := tr.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += nRec {
		cp := cond.NewHashedPerceptron(cond.DefaultHPConfig())
		if _, err := Run(tr, cp, []predictor.Indirect{core.New(core.DefaultConfig())}, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// tapeBenchTrace builds the 600K-instruction interpreter workload the tape
// benchmarks replay.
func tapeBenchTrace() *trace.Columns {
	return wspec.Leaf("tape-replay", "T", 600_000, workload.InterpreterParams{
		Opcodes: 110, ProgramLen: 280, Work: 180, CondPerHandler: 2,
		CondNoise: 0.003, DispatchNoise: 0.002, MonoCalls: 1, MonoSites: 30,
	}).Build()
}

// BenchmarkTapeReplay times Tape.Run's shared-conditional replay, the loop
// ablation passes spend their time in: each op replays one 600K-instruction
// interpreter workload into a fresh BTB + ITTAGE + BLBP pass. The tape's
// conditional and RAS memos are filled, and each op's predictors built,
// outside the timer, so ns/op is the indirect replay alone.
func BenchmarkTapeReplay(b *testing.B) {
	tape, err := NewTape(tapeBenchTrace())
	if err != nil {
		b.Fatal(err)
	}
	pass := func() (cond.Predictor, []predictor.Indirect) {
		return cond.NewHashedPerceptron(cond.DefaultHPConfig()), []predictor.Indirect{
			btb.NewIndirect(btb.Default32K()),
			ittage.New(ittage.DefaultConfig()),
			core.New(core.DefaultConfig()),
		}
	}
	cp, inds := pass()
	if _, err := tape.Run("hp", cp, inds, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cp, inds := pass()
		b.StartTimer()
		if _, err := tape.Run("hp", cp, inds, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTapeMemo times the tape's memo, the conditional/RAS side every
// headline pass pays once per trace: each op fills the memo of a fresh
// tape over the interpreter workload BenchmarkTapeReplay uses, running a
// default hashed perceptron and the default-depth RAS over the whole
// trace. The trace, the tape and the predictor are built outside the
// timer.
func BenchmarkTapeMemo(b *testing.B) {
	cols := tapeBenchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tape, err := NewTape(cols)
		if err != nil {
			b.Fatal(err)
		}
		cp := cond.NewHashedPerceptron(cond.DefaultHPConfig())
		b.StartTimer()
		tape.sharedSide("hp", cp, Options{}.rasDepth())
	}
}

// BenchmarkVPCPass times the other hashed-perceptron stage of a headline
// pass, VPC's full engine: each op runs sim.Run over the interpreter
// workload BenchmarkTapeMemo uses, with a default hashed perceptron as the
// conditional predictor and a default VPC bound to it as the only indirect
// predictor. The trace is built, and each op's predictors constructed,
// outside the timer.
func BenchmarkVPCPass(b *testing.B) {
	cols := tapeBenchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		hp := cond.NewHashedPerceptron(cond.DefaultHPConfig())
		inds := []predictor.Indirect{vpc.New(vpc.DefaultConfig(), hp)}
		b.StartTimer()
		if _, err := Run(cols, hp, inds, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
