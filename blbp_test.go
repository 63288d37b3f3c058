package blbp_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"blbp"
)

func TestQuickstartFlow(t *testing.T) {
	spec := blbp.NewInterpreterWorkload("api-test", "T", 80_000, blbp.InterpreterParams{
		Opcodes: 10, ProgramLen: 24, Work: 20, CondPerHandler: 1,
	})
	tr := spec.Build()
	results, err := blbp.Simulate(tr,
		blbp.NewBLBP(blbp.DefaultBLBPConfig()),
		blbp.NewITTAGE(blbp.DefaultITTAGEConfig()),
		blbp.NewBTBPredictor(blbp.DefaultBTBConfig()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Predictor != "blbp" || results[1].Predictor != "ittage" || results[2].Predictor != "btb" {
		t.Errorf("unexpected predictor order: %v, %v, %v",
			results[0].Predictor, results[1].Predictor, results[2].Predictor)
	}
	// The interpreter dispatch pattern is learnable: BLBP must beat the
	// last-taken BTB baseline handily.
	if results[0].IndirectMPKI() >= results[2].IndirectMPKI() {
		t.Errorf("BLBP MPKI %.3f not better than BTB %.3f",
			results[0].IndirectMPKI(), results[2].IndirectMPKI())
	}
}

func TestVPCSharedPredictorFlow(t *testing.T) {
	spec := blbp.NewVDispatchWorkload("api-vpc", "T", 60_000, blbp.VDispatchParams{
		Classes: 3, Sites: 2, Objects: 12, MethodWork: 20, MethodConds: 1,
	})
	tr := spec.Build()
	hp := blbp.NewHashedPerceptron()
	v := blbp.NewVPC(blbp.DefaultVPCConfig(), hp)
	results, err := blbp.SimulateWith(tr, hp, []blbp.IndirectPredictor{v}, blbp.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Predictor != "vpc" {
		t.Errorf("predictor = %q", results[0].Predictor)
	}
	if results[0].IndirectBranches == 0 {
		t.Error("no indirect branches simulated")
	}
}

func TestSuiteAccessors(t *testing.T) {
	if got := len(blbp.Workloads(1_000)); got != 88 {
		t.Errorf("Workloads = %d entries, want 88", got)
	}
	if got := len(blbp.HoldoutWorkloads(1_000)); got != 12 {
		t.Errorf("HoldoutWorkloads = %d entries, want 12", got)
	}
}

func TestPredictorRegistry(t *testing.T) {
	names := blbp.PredictorNames()
	want := map[string]bool{"blbp": true, "ittage": true, "btb": true, "btb2bit": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing registered predictors: %v (have %v)", want, names)
	}
	p, err := blbp.NewPredictor("blbp")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "blbp" {
		t.Errorf("Name = %q", p.Name())
	}
	if _, err := blbp.NewPredictor("no-such"); err == nil {
		t.Error("unknown predictor accepted")
	}
}

func TestTraceIORoundTripViaAPI(t *testing.T) {
	spec := blbp.NewMonoWorkload("api-io", "T", 5_000, blbp.MonoParams{Sites: 8, Work: 10})
	tr := spec.Build()
	var buf bytes.Buffer
	if err := blbp.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := blbp.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Errorf("round trip lost records: %d vs %d", got.Len(), tr.Len())
	}
	st := blbp.AnalyzeTrace(got)
	if st.IndirectCount() == 0 {
		t.Error("no indirect branches in analyzed trace")
	}
}

func TestAblationConfigSwitchesExposed(t *testing.T) {
	cfg := blbp.DefaultBLBPConfig().WithAllOptimizations(false, false, false, false, false)
	p := blbp.NewBLBP(cfg)
	p.Update(0x10, 0x4000)
	if tgt, ok := p.Predict(0x10); !ok || tgt != 0x4000 {
		t.Error("unoptimized BLBP fails basic prediction")
	}
}

// TestWorkloadConstructorsValidate: the public constructors compile a
// one-leaf workload spec, so parameters the spec validator refuses panic at
// construction with its message, before Build could allocate a
// 5,000-site dispatch table.
func TestWorkloadConstructorsValidate(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func()
		want  string
	}{
		{"sites above the cap", func() {
			blbp.NewVDispatchWorkload("wide", "T", 10_000, blbp.VDispatchParams{Classes: 4, Sites: 5000, Objects: 8})
		}, `vdispatch parameter "Sites" is 5000, above its maximum 4096`},
		{"depths inverted", func() {
			blbp.NewRecursiveWorkload("inverted", "T", 10_000, blbp.RecursiveParams{MinDepth: 10, MaxDepth: 5})
		}, "recursive needs MinDepth <= MaxDepth"},
		{"no instructions", func() {
			blbp.NewMonoWorkload("empty", "T", 0, blbp.MonoParams{Sites: 4})
		}, "instructions must be positive"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: constructor returned a spec", c.name)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want it to contain %q", c.name, msg, c.want)
				}
			}()
			c.build()
		}()
	}
}
