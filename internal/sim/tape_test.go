package sim

import (
	"sync"
	"testing"

	"blbp/internal/btb"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/predictor"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

// tapeWorkload builds a realistic trace exercising every record type.
func tapeWorkload() *workload.Spec {
	s := wspec.Leaf("tape-unit", "T", 60_000, workload.VDispatchParams{
		Classes: 5, Sites: 3, Objects: 24, TypeNoise: 0.002,
		AlternatingSites: 1, MethodWork: 30, MethodConds: 2, CondNoise: 0.005,
		MonoCalls: 1, MonoSites: 8,
	})
	return &s
}

// countingCond counts Predict calls on a delegate conditional predictor.
type countingCond struct {
	cond.Predictor
	predicts int
}

func (c *countingCond) Predict(pc uint64) bool {
	c.predicts++
	return c.Predictor.Predict(pc)
}

// TestTapeRunMatchesFullRun is the engine-split contract: a pass replayed
// through the tape must produce exactly the result of the monolithic Run,
// field for field, for every indirect predictor in the pass.
func TestTapeRunMatchesFullRun(t *testing.T) {
	tr := tapeWorkload().Build()
	tape, err := NewTape(tr)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() (cond.Predictor, []predictor.Indirect) {
		return cond.NewHashedPerceptron(cond.DefaultHPConfig()), []predictor.Indirect{
			btb.NewIndirect(btb.Default32K()),
			core.New(core.DefaultConfig()),
		}
	}
	cp, inds := mk()
	got, err := tape.Run("hp", cp, inds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp2, inds2 := mk()
	want, err := Run(tr, cp2, inds2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("result %d: tape %+v != full run %+v", i, got[i], want[i])
		}
	}
}

// TestTapeRASDepthsMatchFullRun runs passes under one conditional key at
// RAS depths 64 and 256 over a trace that recurses past 64 levels: each
// depth's counters must equal Run's at that depth, and the two depths must
// differ, so a memo that ignored the depth would fail.
func TestTapeRASDepthsMatchFullRun(t *testing.T) {
	tr := wspec.Leaf("tape-deep", "T", 60_000, workload.RecursiveParams{
		MaxDepth: 100, MinDepth: 80, VisitorClasses: 3, Work: 8,
	}).Build()
	tape, err := NewTape(tr)
	if err != nil {
		t.Fatal(err)
	}
	var returnMis []int64
	for _, depth := range []int{64, 256} {
		opts := Options{RASDepth: depth}
		got, err := tape.Run("hp", cond.NewHashedPerceptron(cond.DefaultHPConfig()),
			[]predictor.Indirect{btb.NewIndirect(btb.Default32K())}, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(tr, cond.NewHashedPerceptron(cond.DefaultHPConfig()),
			[]predictor.Indirect{btb.NewIndirect(btb.Default32K())}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Errorf("depth %d: tape %+v != full run %+v", depth, got[0], want[0])
		}
		returnMis = append(returnMis, got[0].ReturnMispredicts)
	}
	if returnMis[0] == returnMis[1] {
		t.Errorf("depths 64 and 256 both give %d return mispredicts; the trace does not tell them apart", returnMis[0])
	}
}

// TestTapeCondSimulatedOncePerKey checks the memoization: the second pass
// under the same key must never drive its conditional predictor, while a
// new key must simulate again.
func TestTapeCondSimulatedOncePerKey(t *testing.T) {
	tr := tapeWorkload().Build()
	tape, err := NewTape(tr)
	if err != nil {
		t.Fatal(err)
	}
	first := &countingCond{Predictor: cond.NewBimodal(1024)}
	r1, err := tape.Run("bimodal", first, []predictor.Indirect{&stubIndirect{have: false}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.predicts == 0 {
		t.Fatal("first pass did not simulate the conditional side")
	}
	second := &countingCond{Predictor: cond.NewBimodal(1024)}
	r2, err := tape.Run("bimodal", second, []predictor.Indirect{&stubIndirect{have: false}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.predicts != 0 {
		t.Errorf("second pass under the same key drove its conditional predictor (%d Predict calls)", second.predicts)
	}
	if r1[0].CondMispredicts != r2[0].CondMispredicts {
		t.Errorf("cond mispredicts differ across replays: %d vs %d", r1[0].CondMispredicts, r2[0].CondMispredicts)
	}
	other := &countingCond{Predictor: cond.NewBimodal(64)}
	if _, err := tape.Run("bimodal-64", other, []predictor.Indirect{&stubIndirect{have: false}}, Options{}); err != nil {
		t.Fatal(err)
	}
	if other.predicts == 0 {
		t.Error("new key did not simulate the conditional side")
	}
}

// TestTapeConcurrentSameKey hammers one key from many goroutines; exactly
// one conditional simulation may happen and every pass must agree.
func TestTapeConcurrentSameKey(t *testing.T) {
	tr := tapeWorkload().Build()
	tape, err := NewTape(tr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	results := make([]int64, n)
	cps := make([]*countingCond, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		cps[i] = &countingCond{Predictor: cond.NewBimodal(1024)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := tape.Run("bimodal", cps[i], []predictor.Indirect{&stubIndirect{have: false}}, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res[0].CondMispredicts
		}()
	}
	wg.Wait()
	simulated := 0
	for _, cp := range cps {
		if cp.predicts > 0 {
			simulated++
		}
	}
	if simulated != 1 {
		t.Errorf("%d conditional simulations ran, want exactly 1", simulated)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Errorf("pass %d cond mispredicts %d != pass 0's %d", i, results[i], results[0])
		}
	}
}

// TestTapeEmptyKeyFallsBack checks that condKey == "" runs the full engine:
// the conditional predictor is driven and results equal Run's.
func TestTapeEmptyKeyFallsBack(t *testing.T) {
	tr := buildTrace()
	tape, err := NewTape(tr)
	if err != nil {
		t.Fatal(err)
	}
	cp := &countingCond{Predictor: cond.NewBimodal(1024)}
	got, err := tape.Run("", cp, []predictor.Indirect{&stubIndirect{target: 0xAAAA, have: true}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cp.predicts == 0 {
		t.Error("exclusive pass did not drive its conditional predictor")
	}
	want, err := Run(tr, cond.NewBimodal(1024), []predictor.Indirect{&stubIndirect{target: 0xAAAA, have: true}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Errorf("fallback result %+v != Run result %+v", got[0], want[0])
	}
}

func TestTapeRunErrors(t *testing.T) {
	tape, err := NewTape(buildTrace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tape.Run("k", nil, []predictor.Indirect{&stubIndirect{}}, Options{}); err == nil {
		t.Error("nil conditional predictor accepted")
	}
	if _, err := tape.Run("k", cond.NewBimodal(8), nil, Options{}); err == nil {
		t.Error("empty indirect set accepted")
	}
	if _, err := NewTape(nil); err == nil {
		t.Error("nil trace accepted")
	}
}
