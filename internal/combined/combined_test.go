package combined_test

import (
	"testing"

	"blbp/internal/combined"
	"blbp/internal/core"
	"blbp/internal/predictor"
	"blbp/internal/sim"
	"blbp/internal/trace"
)

func newCombined() *combined.Predictor { return combined.New(core.DefaultConfig()) }

func TestConditionalBiasLearned(t *testing.T) {
	p := newCombined()
	mis := 0
	for i := 0; i < 1000; i++ {
		pred := p.Predict(0x400)
		if pred != true && i >= 200 {
			mis++
		}
		p.TrainWithTarget(0x400, true, 0x9000)
		p.UpdateHistory(0x400, true)
	}
	if mis > 5 {
		t.Errorf("%d late mispredicts on always-taken conditional", mis)
	}
}

func TestConditionalAlternationLearned(t *testing.T) {
	p := newCombined()
	mis := 0
	const n = 4000
	for i := 0; i < n; i++ {
		taken := i%2 == 0
		pred := p.Predict(0x500)
		if pred != taken && i >= n*3/4 {
			mis++
		}
		p.TrainWithTarget(0x500, taken, 0x9100)
		p.UpdateHistory(0x500, taken)
	}
	if mis > 20 {
		t.Errorf("%d late mispredicts on alternating conditional (of %d)", mis, n/4)
	}
}

func TestColdConditionalPredictsNotTaken(t *testing.T) {
	p := newCombined()
	if p.Predict(0x123) {
		t.Error("cold branch predicted taken; static prediction should be not-taken")
	}
}

func TestIndirectRoleStillWorks(t *testing.T) {
	p := newCombined()
	v := p.Indirect()
	mis := 0
	for i := 0; i < 600; i++ {
		tgt := uint64(0x1000)
		if i%2 == 1 {
			tgt = 0x3000
		}
		pred, ok := v.Predict(0x700)
		if (!ok || pred != tgt) && i >= 450 {
			mis++
		}
		v.Update(0x700, tgt)
	}
	if mis > 10 {
		t.Errorf("%d late mispredicts on alternating indirect targets", mis)
	}
}

func TestTrainWithoutTargetFallback(t *testing.T) {
	p := newCombined()
	// Out-of-contract use (plain Train) must not panic and must still
	// learn a direction bias.
	for i := 0; i < 500; i++ {
		p.Predict(0x800)
		p.Train(0x800, true)
	}
	if !p.Predict(0x800) {
		t.Error("bias not learned through Train fallback")
	}
}

func TestConsolidatedEngineRun(t *testing.T) {
	// Full engine pass with the combined predictor in both roles over a
	// synthetic stream with correlated conditionals and indirect targets.
	tr := trace.NewColumns("consolidated", 0)
	// Period-3 outcome pattern (T,T,N): learnable from history, unlike an
	// iid stream which no predictor can beat beyond its bias.
	for i := 0; i < 3000; i++ {
		taken := i%3 != 2
		condTarget := uint64(0x104)
		if taken {
			condTarget = 0x140
		}
		tr.Append(trace.Record{PC: 0x100, Target: condTarget, InstrBefore: 8, Type: trace.CondDirect, Taken: taken})
		tgt := uint64(0x1000)
		if taken {
			tgt = 0x3000
		}
		tr.Append(trace.Record{PC: 0x200, Target: tgt, InstrBefore: 5, Type: trace.IndirectJump, Taken: true})
	}
	p := newCombined()
	res, err := sim.Run(tr, p, []predictor.Indirect{p.Indirect()}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.CondBranches != 3000 || r.IndirectBranches != 3000 {
		t.Fatalf("branch counts %d/%d", r.CondBranches, r.IndirectBranches)
	}
	// The indirect target equals the last conditional outcome: must be
	// learned almost perfectly.
	if r.IndirectMPKI() > 1.0 {
		t.Errorf("indirect MPKI = %.3f, want < 1.0", r.IndirectMPKI())
	}
	// Conditional accuracy should be well above the 67% static floor.
	if r.CondAccuracy() < 0.8 {
		t.Errorf("conditional accuracy = %.3f, want >= 0.8", r.CondAccuracy())
	}
}

func TestStorageSingleStructure(t *testing.T) {
	p := newCombined()
	dedicated := core.New(core.DefaultConfig())
	if p.StorageBits() != dedicated.StorageBits() {
		t.Errorf("consolidated storage %d != single BLBP %d", p.StorageBits(), dedicated.StorageBits())
	}
	if p.Indirect().StorageBits() != p.StorageBits() {
		t.Error("views disagree on storage")
	}
}

func TestNames(t *testing.T) {
	p := newCombined()
	if p.Name() != "combined" || p.Indirect().Name() != "combined" {
		t.Error("names")
	}
}

func TestViewHooksAreNoops(t *testing.T) {
	p := newCombined()
	v := p.Indirect()
	p.TrainWithTarget(0x10, true, 0x5000)
	before, _ := v.Predict(0x10)
	v.OnCond(0x99, true)
	v.OnOther(0x98, 0x97, trace.Return)
	after, _ := v.Predict(0x10)
	if before != after {
		t.Error("view hooks disturbed shared state")
	}
}
