package sim

import (
	"testing"

	"blbp/internal/btb"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/predictor"
	"blbp/internal/trace"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

// stubIndirect predicts a fixed target for every branch.
type stubIndirect struct {
	target uint64
	have   bool
}

func (s *stubIndirect) Name() string                                   { return "stub" }
func (s *stubIndirect) Predict(pc uint64) (uint64, bool)               { return s.target, s.have }
func (s *stubIndirect) Update(pc, actual uint64)                       {}
func (s *stubIndirect) OnCond(pc uint64, taken bool)                   {}
func (s *stubIndirect) OnOther(pc, target uint64, bt trace.BranchType) {}
func (s *stubIndirect) StorageBits() int                               { return 0 }

var _ predictor.Indirect = (*stubIndirect)(nil)

// runOne runs a single indirect predictor and returns its Result.
func runOne(tr *trace.Columns, cp cond.Predictor, ip predictor.Indirect, opts Options) (Result, error) {
	res, err := Run(tr, cp, []predictor.Indirect{ip}, opts)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

func buildTrace() *trace.Columns {
	tr := trace.NewColumns("unit", 0)
	// 10 conditional (taken), 4 indirect to 0xAAAA, 2 indirect to 0xBBBB,
	// one call/return pair.
	for i := 0; i < 10; i++ {
		tr.Append(trace.Record{PC: 0x100, Target: 0x140, InstrBefore: 9, Type: trace.CondDirect, Taken: true})
	}
	for i := 0; i < 4; i++ {
		tr.Append(trace.Record{PC: 0x200, Target: 0xAAAA, InstrBefore: 4, Type: trace.IndirectJump, Taken: true})
	}
	for i := 0; i < 2; i++ {
		tr.Append(trace.Record{PC: 0x204, Target: 0xBBBB, InstrBefore: 4, Type: trace.IndirectJump, Taken: true})
	}
	tr.Append(trace.Record{PC: 0x300, Target: 0x4000, InstrBefore: 0, Type: trace.DirectCall, Taken: true})
	tr.Append(trace.Record{PC: 0x4080, Target: 0x304, InstrBefore: 7, Type: trace.Return, Taken: true})
	return tr
}

func TestCountsWithStub(t *testing.T) {
	tr := buildTrace()
	stub := &stubIndirect{target: 0xAAAA, have: true}
	res, err := runOne(tr, cond.NewBimodal(1024), stub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.IndirectBranches != 6 {
		t.Errorf("IndirectBranches = %d, want 6", res.IndirectBranches)
	}
	// Stub always says 0xAAAA: the 2 branches to 0xBBBB mispredict.
	if res.IndirectMispredicts != 2 {
		t.Errorf("IndirectMispredicts = %d, want 2", res.IndirectMispredicts)
	}
	if res.NoPrediction != 0 {
		t.Errorf("NoPrediction = %d, want 0", res.NoPrediction)
	}
	if res.CondBranches != 10 {
		t.Errorf("CondBranches = %d, want 10", res.CondBranches)
	}
	if res.Returns != 1 || res.ReturnMispredicts != 0 {
		t.Errorf("Returns/mis = %d/%d, want 1/0", res.Returns, res.ReturnMispredicts)
	}
	wantInstr := tr.Instructions()
	if res.Instructions != wantInstr {
		t.Errorf("Instructions = %d, want %d", res.Instructions, wantInstr)
	}
	if res.Trace != "unit" || res.Predictor != "stub" {
		t.Errorf("labels = %q/%q", res.Trace, res.Predictor)
	}
}

func TestNoPredictionCountsAsMispredict(t *testing.T) {
	tr := buildTrace()
	stub := &stubIndirect{have: false}
	res, err := runOne(tr, cond.NewBimodal(1024), stub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.IndirectMispredicts != 6 || res.NoPrediction != 6 {
		t.Errorf("mis/nopred = %d/%d, want 6/6", res.IndirectMispredicts, res.NoPrediction)
	}
}

func TestMPKIComputation(t *testing.T) {
	r := Result{Instructions: 2000, IndirectMispredicts: 3, CondMispredicts: 10, CondBranches: 100}
	if got := r.IndirectMPKI(); got != 1.5 {
		t.Errorf("IndirectMPKI = %v, want 1.5", got)
	}
	if got := r.CondMPKI(); got != 5.0 {
		t.Errorf("CondMPKI = %v, want 5.0", got)
	}
	if got := r.CondAccuracy(); got != 0.9 {
		t.Errorf("CondAccuracy = %v, want 0.9", got)
	}
	var zero Result
	if zero.IndirectMPKI() != 0 || zero.CondAccuracy() != 0 {
		t.Error("zero-value Result should produce zero metrics")
	}
}

func TestReturnMispredictOnColdStack(t *testing.T) {
	tr := trace.NewColumns("ret", 0)
	tr.Append(trace.Record{PC: 0x100, Target: 0x9999, Type: trace.Return, Taken: true})
	res, err := runOne(tr, cond.NewBimodal(64), &stubIndirect{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReturnMispredicts != 1 {
		t.Errorf("ReturnMispredicts = %d, want 1 (empty RAS)", res.ReturnMispredicts)
	}
}

func TestCallReturnMatchingAcrossIndirectCalls(t *testing.T) {
	tr := trace.NewColumns("icall", 0)
	tr.Append(trace.Record{PC: 0x100, Target: 0x8000, Type: trace.IndirectCall, Taken: true})
	tr.Append(trace.Record{PC: 0x8010, Target: 0x104, Type: trace.Return, Taken: true})
	res, err := runOne(tr, cond.NewBimodal(64), &stubIndirect{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReturnMispredicts != 0 {
		t.Errorf("ReturnMispredicts = %d, want 0 (indirect call pushed PC+4)", res.ReturnMispredicts)
	}
}

func TestMultiPredictorSinglePass(t *testing.T) {
	tr := buildTrace()
	good := &stubIndirect{target: 0xAAAA, have: true}
	bad := &stubIndirect{have: false}
	res, err := Run(tr, cond.NewBimodal(1024), []predictor.Indirect{good, bad}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if res[0].IndirectMispredicts != 2 || res[1].IndirectMispredicts != 6 {
		t.Errorf("mispredicts = %d/%d, want 2/6", res[0].IndirectMispredicts, res[1].IndirectMispredicts)
	}
	// Shared statistics must be identical.
	if res[0].CondMispredicts != res[1].CondMispredicts || res[0].Instructions != res[1].Instructions {
		t.Error("shared statistics differ between predictors in one pass")
	}
}

func TestRealPredictorsEndToEnd(t *testing.T) {
	// A monomorphic indirect branch stream: all real predictors should
	// converge to near-zero indirect MPKI.
	tr := trace.NewColumns("mono", 0)
	for i := 0; i < 2000; i++ {
		tr.Append(trace.Record{PC: 0x100, Target: 0x140, InstrBefore: 8, Type: trace.CondDirect, Taken: i%3 != 0})
		tr.Append(trace.Record{PC: 0x200, Target: 0x7000, InstrBefore: 5, Type: trace.IndirectJump, Taken: true})
	}
	blbp := core.New(core.DefaultConfig())
	base := btb.NewIndirect(btb.Default32K())
	res, err := Run(tr, cond.NewHashedPerceptron(cond.DefaultHPConfig()), []predictor.Indirect{blbp, base}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.IndirectMispredicts > 2 {
			t.Errorf("%s: %d indirect mispredicts on monomorphic stream, want <= 2", r.Predictor, r.IndirectMispredicts)
		}
	}
	// The conditional predictor should learn the period-3 pattern well.
	if res[0].CondAccuracy() < 0.95 {
		t.Errorf("conditional accuracy = %v, want >= 0.95", res[0].CondAccuracy())
	}
}

func TestErrorCases(t *testing.T) {
	tr := buildTrace()
	if _, err := Run(nil, cond.NewBimodal(4), []predictor.Indirect{&stubIndirect{}}, Options{}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := Run(tr, nil, []predictor.Indirect{&stubIndirect{}}, Options{}); err == nil {
		t.Error("nil conditional predictor accepted")
	}
	if _, err := Run(tr, cond.NewBimodal(4), nil, Options{}); err == nil {
		t.Error("empty predictor list accepted")
	}
	badTrace := trace.NewColumns("bad", 1)
	badTrace.Append(trace.Record{Type: trace.BranchType(7), Taken: true})
	if _, err := Run(badTrace, cond.NewBimodal(4), []predictor.Indirect{&stubIndirect{}}, Options{}); err == nil {
		t.Error("invalid record accepted")
	}
}

func TestAccountingMatchesTraceAnalysis(t *testing.T) {
	// Engine accounting must agree exactly with offline trace analysis for
	// every workload family.
	specs := []workload.Spec{
		wspec.Leaf("acc-i", "T", 30_000, workload.InterpreterParams{
			Opcodes: 8, ProgramLen: 24, Work: 20, CondPerHandler: 1, MonoCalls: 1, MonoSites: 8,
		}),
		wspec.Leaf("acc-v", "T", 30_000, workload.VDispatchParams{
			Classes: 3, Sites: 2, Objects: 12, MethodWork: 20, MethodConds: 1, AlternatingSites: 1,
		}),
		wspec.Leaf("acc-c", "T", 30_000, workload.CallbacksParams{
			Events: 4, Skew: 1.5, Wrappers: 2, HandlerWork: 20, HandlerConds: 1,
		}),
		wspec.Leaf("acc-r", "T", 30_000, workload.RecursiveParams{
			MaxDepth: 40, MinDepth: 5, VisitorClasses: 2, Work: 10,
		}),
	}
	for _, spec := range specs {
		tr := spec.Build()
		st := trace.Analyze(tr)
		res, err := runOne(tr, cond.NewBimodal(1024), &stubIndirect{}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Instructions != st.Instructions {
			t.Errorf("%s: engine instructions %d != analysis %d", spec.Name, res.Instructions, st.Instructions)
		}
		if res.CondBranches != st.Count[trace.CondDirect] {
			t.Errorf("%s: cond count %d != analysis %d", spec.Name, res.CondBranches, st.Count[trace.CondDirect])
		}
		if res.IndirectBranches != st.IndirectCount() {
			t.Errorf("%s: indirect count %d != analysis %d", spec.Name, res.IndirectBranches, st.IndirectCount())
		}
		if res.Returns != st.Count[trace.Return] {
			t.Errorf("%s: return count %d != analysis %d", spec.Name, res.Returns, st.Count[trace.Return])
		}
	}
}

func TestRASOverflowVisibleInEngine(t *testing.T) {
	spec := wspec.Leaf("deep", "T", 60_000, workload.RecursiveParams{
		MaxDepth: 100, MinDepth: 80, Work: 8,
	})
	tr := spec.Build()
	res, err := runOne(tr, cond.NewBimodal(64), &stubIndirect{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReturnMispredicts == 0 {
		t.Error("recursion past RAS depth produced no return mispredicts")
	}
	// A deeper RAS must strictly help.
	res2, err := runOne(tr, cond.NewBimodal(64), &stubIndirect{}, Options{RASDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ReturnMispredicts >= res.ReturnMispredicts {
		t.Errorf("256-deep RAS (%d mispredicts) not better than 64-deep (%d)",
			res2.ReturnMispredicts, res.ReturnMispredicts)
	}
}
