package blbp_test

import (
	"bytes"
	"fmt"

	"blbp"
)

// The basic flow: build a workload trace and measure a predictor on it.
func Example() {
	spec := blbp.NewSwitcherWorkload("example", "docs", 120_000, blbp.SwitcherParams{
		Tokens: 8, CaseWork: 30, CaseConds: 1,
	})
	tr := spec.Build()
	results, err := blbp.Simulate(tr, blbp.NewBLBP(blbp.DefaultBLBPConfig()))
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s predicted %d indirect branches\n",
		results[0].Predictor, results[0].IndirectBranches)
	fmt.Printf("misprediction rate under 3%%: %v\n",
		float64(results[0].IndirectMispredicts)/float64(results[0].IndirectBranches) < 0.03)
	// Output:
	// blbp predicted 2577 indirect branches
	// misprediction rate under 3%: true
}

// Comparing predictors head to head in a single engine pass.
func ExampleSimulate() {
	spec := blbp.NewVDispatchWorkload("compare", "docs", 100_000, blbp.VDispatchParams{
		Classes: 4, Sites: 3, Objects: 16, MethodWork: 30, MethodConds: 1,
	})
	tr := spec.Build()
	results, err := blbp.Simulate(tr,
		blbp.NewBLBP(blbp.DefaultBLBPConfig()),
		blbp.NewBTBPredictor(blbp.DefaultBTBConfig()),
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("BLBP beats the last-taken BTB: %v\n",
		results[0].IndirectMPKI() < results[1].IndirectMPKI())
	// Output:
	// BLBP beats the last-taken BTB: true
}

// Traces round-trip through SPL3 trace files, the format tracegen writes.
func ExampleWriteTrace() {
	spec := blbp.NewMonoWorkload("io", "docs", 10_000, blbp.MonoParams{Sites: 4, Work: 10})
	tr := spec.Build()
	var buf bytes.Buffer
	if err := blbp.WriteTrace(&buf, tr); err != nil {
		panic(err)
	}
	back, err := blbp.ReadTrace(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println(back.Len() == tr.Len())
	// Output:
	// true
}

// Inspecting a trace's branch population (the paper's Fig. 1/6/7 inputs).
func ExampleAnalyzeTrace() {
	spec := blbp.NewInterpreterWorkload("stats", "docs", 50_000, blbp.InterpreterParams{
		Opcodes: 6, ProgramLen: 18, Work: 20, CondPerHandler: 1,
	})
	st := blbp.AnalyzeTrace(spec.Build())
	fmt.Printf("dispatch site is polymorphic: %v\n", st.PolymorphicFraction() > 0)
	fmt.Printf("distinct handlers observed: %d\n", st.MaxTargets())
	// Output:
	// dispatch site is polymorphic: true
	// distinct handlers observed: 6
}
