// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation (DESIGN.md §4 maps each to its built-in run plan), plus
// microbenchmarks of the predictors themselves. The macro benchmarks run
// the real run plans on a reduced instruction base so `go test -bench=.`
// stays tractable; cmd/experiments regenerates the full-scale numbers.
//
// Custom metrics (reported via b.ReportMetric):
//
//	MPKI-<predictor>   suite-mean indirect MPKI
//	pct-vs-ittage      percent MPKI reduction of BLBP relative to ITTAGE
package blbp_test

import (
	"testing"

	"blbp"
	"blbp/internal/experiments"
	"blbp/internal/runspec"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

// benchBase is the instruction base for macro benchmarks (full runs use
// 400k+; see cmd/experiments).
const benchBase = 60_000

func benchSuite() []workload.Spec { return wspec.Suite(benchBase) }

// benchRunner is the execution layer shared by every macro benchmark in
// this file: its trace cache means each workload is synthesized once for
// the whole `go test -bench` run, and the shared tape keeps repeated
// conditional-side simulation off the measured path after the first
// plan touches a workload.
var benchRunner = experiments.NewRunner(0)

func mustBuiltin(b *testing.B, name string) *runspec.Plan {
	b.Helper()
	plan, ok := runspec.Builtin(name)
	if !ok {
		b.Fatalf("no built-in plan %q", name)
	}
	return plan
}

// runBenchPlan executes the plan b.N times and returns the last run's
// single rendered output. Each iteration gets a fresh Exec: the executor
// memoizes (suite, passes) results, so reusing one across iterations would
// make every iteration after the first free and corrupt the timing. The
// shared benchRunner underneath still amortizes trace building and the
// conditional tape across iterations, as the old drivers did.
func runBenchPlan(b *testing.B, plan *runspec.Plan) runspec.RenderedOutput {
	b.Helper()
	var out runspec.RenderedOutput
	for i := 0; i < b.N; i++ {
		outs, err := runspec.NewExec(benchRunner, benchBase).Run(plan)
		if err != nil {
			b.Fatal(err)
		}
		out = outs[0]
	}
	return out
}

// BenchmarkTable1Suite regenerates Table 1: building every workload in the
// suite and tabulating it by category.
func BenchmarkTable1Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Table1(benchSuite())
		if tb.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Budgets regenerates Table 2: constructing every predictor
// and computing its modeled hardware budget.
func BenchmarkTable2Budgets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		budgets := experiments.Budgets()
		if len(budgets) != 4 {
			b.Fatal("wrong budget count")
		}
	}
	for _, bd := range experiments.Budgets() {
		b.ReportMetric(float64(bd.Bits)/8192, "KB-"+bd.Predictor)
	}
}

// BenchmarkFig1BranchMix regenerates Figure 1: the per-kilo-instruction
// branch mix of all 88 workloads.
func BenchmarkFig1BranchMix(b *testing.B) {
	var indirectMax float64
	for i := 0; i < b.N; i++ {
		_, rows := benchRunner.Fig1(benchSuite())
		indirectMax = rows[len(rows)-1].Indirect
	}
	b.ReportMetric(indirectMax, "max-indirect-per-KI")
}

// BenchmarkFig6Polymorphism regenerates Figure 6: polymorphic-execution
// percentages per workload.
func BenchmarkFig6Polymorphism(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		_, rows := benchRunner.Fig6(benchSuite())
		spread = rows[len(rows)-1].PolyPct - rows[0].PolyPct
	}
	b.ReportMetric(spread, "poly-pct-spread")
}

// BenchmarkFig7TargetDistribution regenerates Figure 7: the CCDF of
// distinct-target counts.
func BenchmarkFig7TargetDistribution(b *testing.B) {
	var atLeast5 float64
	for i := 0; i < b.N; i++ {
		_, pts := benchRunner.Fig7(benchSuite(), 64)
		atLeast5 = pts[4].PctAtLeast
	}
	b.ReportMetric(atLeast5, "pct-with-5plus-targets")
}

// BenchmarkOverallMPKI regenerates the §5.1 headline numbers: suite-mean
// MPKI of BTB, VPC, ITTAGE, and BLBP (paper: 3.40 / 0.29 / 0.193 / 0.183).
func BenchmarkOverallMPKI(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "overall"))
	data := out.Data.(experiments.OverallData)
	for _, p := range data.Predictors {
		b.ReportMetric(data.Mean(p), "MPKI-"+p)
	}
	it, bl := data.Mean(experiments.NameITTAGE), data.Mean(experiments.NameBLBP)
	if it > 0 {
		b.ReportMetric(100*(it-bl)/it, "pct-vs-ittage")
	}
}

// BenchmarkFig8MPKI regenerates Figure 8: the per-benchmark MPKI table of
// VPC, ITTAGE, and BLBP sorted by BLBP MPKI.
func BenchmarkFig8MPKI(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "fig8"))
	if out.Table.Rows() != 88 {
		b.Fatal("fig8 row count")
	}
}

// BenchmarkFig9Relative regenerates Figure 9: the four predictors' relative
// MPKI shares per benchmark.
func BenchmarkFig9Relative(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "fig9"))
	if out.Table.Rows() != 88 {
		b.Fatal("fig9 row count")
	}
}

// BenchmarkHoldoutSuite regenerates the §5.1 cross-validation experiment
// (the CBP-4 analog): the standard predictors on the 12 held-out workloads.
func BenchmarkHoldoutSuite(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "holdout"))
	data := out.Data.(experiments.OverallData)
	b.ReportMetric(data.Mean(experiments.NameITTAGE), "MPKI-ittage")
	b.ReportMetric(data.Mean(experiments.NameBLBP), "MPKI-blbp")
}

// BenchmarkFig10Ablation regenerates Figure 10: the twelve optimization
// arms versus the ITTAGE reference.
func BenchmarkFig10Ablation(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "fig10"))
	for _, r := range out.Data.([]runspec.Fig10Row) {
		if r.Variant == "all-on" || r.Variant == "all-off" {
			b.ReportMetric(r.PctVsITTAGE, "pct-"+r.Variant)
		}
	}
}

// BenchmarkFig11Associativity regenerates Figure 11: the IBTB
// associativity sweep at 4096 entries.
func BenchmarkFig11Associativity(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "fig11"))
	for _, r := range out.Data.([]runspec.Fig11Row) {
		switch r.Label {
		case "assoc-4":
			b.ReportMetric(r.MeanMPKI, "MPKI-assoc4")
		case "assoc-64":
			b.ReportMetric(r.MeanMPKI, "MPKI-assoc64")
		}
	}
}

// BenchmarkExtrasBaselines runs the extended related-work lineage (plain
// BTB, 2-bit BTB, Target Cache, cascaded, ITTAGE, BLBP) — the quantitative
// version of the paper's §2.2.
func BenchmarkExtrasBaselines(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "extras"))
	means := out.Data.(map[string]float64)
	for _, p := range []string{"btb2bit", "targetcache", "cascaded"} {
		b.ReportMetric(means[p], "MPKI-"+p)
	}
}

// BenchmarkAblationArrays sweeps the number of weight SRAM arrays (the
// SNIP-44 to BLBP-8 reduction of §3) at roughly constant storage.
func BenchmarkAblationArrays(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "arrays"))
	means := out.Data.(map[string]float64)
	b.ReportMetric(means["arrays-8"], "MPKI-arrays8")
	b.ReportMetric(means["arrays-44"], "MPKI-arrays44")
}

// BenchmarkAblationTargetBits sweeps GlobalTargetBits (DESIGN.md §2's
// documented deviation from the paper-literal conditional-only GHIST).
func BenchmarkAblationTargetBits(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "targetbits"))
	means := out.Data.(map[string]float64)
	b.ReportMetric(means["targetbits-0"], "MPKI-bits0")
	b.ReportMetric(means["targetbits-2"], "MPKI-bits2")
}

// BenchmarkExtensionCombined runs the §6 future-work consolidation: one
// BLBP structure predicting both conditional directions and indirect
// targets.
func BenchmarkExtensionCombined(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "combined"))
	res := out.Data.(runspec.CombinedResult)
	b.ReportMetric(res.ConsolidatedCondAcc, "cond-acc-consolidated")
	b.ReportMetric(res.ConsolidatedIndirectMPKI, "MPKI-consolidated")
	b.ReportMetric(res.DedicatedIndirectMPKI, "MPKI-dedicated")
}

// --- Microbenchmarks: predictor operation costs --------------------------

// microTrace builds one moderately polymorphic trace reused across
// predictor microbenchmarks.
func microTrace() *blbp.Trace {
	spec := blbp.NewVDispatchWorkload("micro", "bench", 200_000, blbp.VDispatchParams{
		Classes: 6, Sites: 4, Objects: 32, MethodWork: 40, MethodConds: 2,
		MonoCalls: 1, MonoSites: 20,
	})
	return spec.Build()
}

func benchPredictor(b *testing.B, make func() blbp.IndirectPredictor) {
	tr := microTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := make()
		for ri := 0; ri < tr.Len(); ri++ {
			r := tr.Record(ri)
			switch {
			case r.Type == blbp.CondDirect:
				p.OnCond(r.PC, r.Taken)
			case r.Type.IsIndirect():
				p.Predict(r.PC)
				p.Update(r.PC, r.Target)
			default:
				p.OnOther(r.PC, r.Target, r.Type)
			}
		}
	}
	b.SetBytes(int64(tr.Len()))
}

// BenchmarkBLBPThroughput measures BLBP's per-branch cost over a trace.
func BenchmarkBLBPThroughput(b *testing.B) {
	benchPredictor(b, func() blbp.IndirectPredictor { return blbp.NewBLBP(blbp.DefaultBLBPConfig()) })
}

// BenchmarkITTAGEThroughput measures ITTAGE's per-branch cost.
func BenchmarkITTAGEThroughput(b *testing.B) {
	benchPredictor(b, func() blbp.IndirectPredictor { return blbp.NewITTAGE(blbp.DefaultITTAGEConfig()) })
}

// BenchmarkBTBThroughput measures the baseline BTB's per-branch cost.
func BenchmarkBTBThroughput(b *testing.B) {
	benchPredictor(b, func() blbp.IndirectPredictor { return blbp.NewBTBPredictor(blbp.DefaultBTBConfig()) })
}

// BenchmarkEngineEndToEnd measures whole-engine simulation throughput
// (conditional predictor + RAS + BLBP) in instructions per second, the
// number that bounds full-suite experiment time.
func BenchmarkEngineEndToEnd(b *testing.B) {
	tr := microTrace()
	instr := tr.Instructions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blbp.Simulate(tr, blbp.NewBLBP(blbp.DefaultBLBPConfig())); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(instr)
}

// BenchmarkTraceGeneration measures workload synthesis throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	spec := blbp.NewInterpreterWorkload("gen", "bench", 200_000, blbp.InterpreterParams{
		Opcodes: 16, ProgramLen: 48, Work: 40, CondPerHandler: 2,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := spec.Build()
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
	b.SetBytes(200_000)
}

// BenchmarkExtensionHierarchy runs the §6 future-work IBTB-hierarchy study
// (8-way L1 + 16-way L2 vs the monolithic 64-way and 8-way buffers).
func BenchmarkExtensionHierarchy(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "hierarchy"))
	res := out.Data.(runspec.HierarchyResult)
	b.ReportMetric(res.Mono64MPKI, "MPKI-mono64")
	b.ReportMetric(res.HierMPKI, "MPKI-hierarchy")
	b.ReportMetric(res.HierL2Rate, "L2-probe-rate")
}

// BenchmarkExtensionCottage runs the §2.2 COTTAGE pairing (TAGE + ITTAGE)
// against hashed perceptron + BLBP.
func BenchmarkExtensionCottage(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "cottage"))
	res := out.Data.(runspec.CottageResult)
	b.ReportMetric(res.TAGECondAcc, "cond-acc-tage")
	b.ReportMetric(res.ITTAGEMPKI, "MPKI-cottage")
	b.ReportMetric(res.BLBPMPKI, "MPKI-blbp")
}

// BenchmarkExtensionLatency regenerates the §3.7 selection-latency
// analysis from BLBP's candidate-set-size histogram.
func BenchmarkExtensionLatency(b *testing.B) {
	out := runBenchPlan(b, mustBuiltin(b, "latency"))
	res := out.Data.(runspec.LatencyResult)
	b.ReportMetric(res.PctOneCycle, "pct-one-cycle")
	b.ReportMetric(res.PctWithin4, "pct-within-4")
}

// BenchmarkExtensionSeeds re-runs the headline on independently seeded
// suite draws to bound its seed sensitivity.
func BenchmarkExtensionSeeds(b *testing.B) {
	plan := mustBuiltin(b, "seeds")
	plan.Suite.Salts = []string{"", "a"} // two draws keep the benchmark tractable
	out := runBenchPlan(b, plan)
	for _, r := range out.Data.([]runspec.SeedsRow) {
		label := r.Salt
		if label == "" {
			label = "default"
		}
		b.ReportMetric(r.PctVsITTAGE, "pct-"+label)
	}
}
