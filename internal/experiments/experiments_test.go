package experiments_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"blbp/internal/btb"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/experiments"
	"blbp/internal/predictor"
	"blbp/internal/runspec"
	"blbp/internal/sim"
	"blbp/internal/trace"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

// newHP builds the default hashed perceptron, the conditional predictor
// behind experiments.CondKeyHP.
func newHP() cond.Predictor { return cond.NewHashedPerceptron(cond.DefaultHPConfig()) }

// leaf is a generator-tree leaf of the given kind over its workload.*Params
// value.
func leaf(kind string, params any) wspec.Node {
	b, err := json.Marshal(params)
	if err != nil {
		panic(err)
	}
	return wspec.Node{Kind: kind, Params: b}
}

// miniSpecs returns a small but diverse workload set for fast integration
// tests.
func miniSpecs(instr int64) []wspec.WorkloadSpec {
	return []wspec.WorkloadSpec{
		{Name: "mini-interp", Category: "T", Instructions: instr, Generator: leaf("interpreter", workload.InterpreterParams{
			Opcodes: 12, ProgramLen: 32, Work: 30, CondPerHandler: 1,
			CondNoise: 0.005, DispatchNoise: 0.002, MonoCalls: 1, MonoSites: 10,
		})},
		{Name: "mini-vdisp", Category: "T", Instructions: instr, Generator: leaf("vdispatch", workload.VDispatchParams{
			Classes: 4, Sites: 3, Objects: 16, TypeNoise: 0.002,
			AlternatingSites: 1, MethodWork: 30, MethodConds: 1, CondNoise: 0.005,
		})},
		{Name: "mini-switch", Category: "T", Instructions: instr, Generator: leaf("switcher", workload.SwitcherParams{
			Tokens: 8, TransitionNoise: 0.004, CaseWork: 30, CaseConds: 1, CondNoise: 0.005,
		})},
	}
}

// miniSuite compiles miniSpecs for the tests that drive a Runner directly.
func miniSuite(instr int64) []workload.Spec {
	ws := miniSpecs(instr)
	specs := make([]workload.Spec, len(ws))
	for i := range ws {
		specs[i] = wspec.MustCompile(ws[i])
	}
	return specs
}

// inline lists specs as a run plan's suite.
func inline(specs []wspec.WorkloadSpec) runspec.Suite {
	var s runspec.Suite
	for i := range specs {
		s.Specs = append(s.Specs, runspec.SuiteSpec{Inline: &specs[i]})
	}
	return s
}

// testRunner returns a Runner closed when the test ends.
func testRunner(t *testing.T, workers int) *experiments.Runner {
	t.Helper()
	r := experiments.NewRunner(workers)
	t.Cleanup(r.Close)
	return r
}

// runBuiltin runs the named built-in plan over suite on x, the path every
// real run takes, and returns the plan's one output.
func runBuiltin(t *testing.T, x *runspec.Exec, name string, suite runspec.Suite) runspec.RenderedOutput {
	t.Helper()
	p, ok := runspec.Builtin(name)
	if !ok {
		t.Fatalf("no built-in plan %q", name)
	}
	p.Suite = suite
	outs, err := x.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return outs[0]
}

// overallRows runs the overall built-in, the paper's Table 2 line-up, over
// suite on a fresh Runner with workers workers and returns its
// per-workload results.
func overallRows(t *testing.T, workers int, suite runspec.Suite) []experiments.WorkloadResult {
	t.Helper()
	x := runspec.NewExec(testRunner(t, workers), 0)
	return runBuiltin(t, x, "overall", suite).Data.(experiments.OverallData).Rows
}

func TestRunSuiteStandardPasses(t *testing.T) {
	rows := overallRows(t, 0, inline(miniSpecs(120_000)))
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		for _, p := range []string{experiments.NameBTB, experiments.NameVPC, experiments.NameITTAGE, experiments.NameBLBP} {
			res, ok := r.Results[p]
			if !ok {
				t.Fatalf("%s: missing predictor %s", r.Spec.Name, p)
			}
			if res.IndirectBranches == 0 {
				t.Errorf("%s/%s: no indirect branches simulated", r.Spec.Name, p)
			}
		}
		// On these learnable workloads the history predictors must beat
		// the BTB baseline decisively.
		if r.MPKI(experiments.NameBLBP) >= r.MPKI(experiments.NameBTB) {
			t.Errorf("%s: BLBP (%.3f) not better than BTB (%.3f)",
				r.Spec.Name, r.MPKI(experiments.NameBLBP), r.MPKI(experiments.NameBTB))
		}
	}
}

// blbpPass is a hand-built pass: one default BLBP over cp.
func blbpPass(condKey string, cp func() cond.Predictor) experiments.Pass {
	return experiments.Pass{CondKey: condKey, New: func(int) (cond.Predictor, []predictor.Indirect, func()) {
		return cp(), []predictor.Indirect{core.New(core.DefaultConfig())}, nil
	}}
}

func TestRunSuiteErrors(t *testing.T) {
	r := testRunner(t, 1)
	one := []experiments.Pass{blbpPass(experiments.CondKeyHP, newHP)}
	if _, err := r.RunSuites([][]workload.Spec{nil}, one); err == nil {
		t.Error("empty suite accepted")
	}
	if _, err := r.RunSuites([][]workload.Spec{miniSuite(1000)}, nil); err == nil {
		t.Error("no passes accepted")
	}
	// Duplicate predictor names across passes must be rejected.
	bimodal := func() cond.Predictor { return cond.NewBimodal(64) }
	dup := []experiments.Pass{blbpPass("", bimodal), blbpPass("", bimodal)}
	if _, err := r.RunSuites([][]workload.Spec{miniSuite(5_000)}, dup); err == nil {
		t.Error("duplicate predictor names accepted")
	}
}

func TestRunSuiteDeterministicAcrossParallelism(t *testing.T) {
	suite := inline(miniSpecs(60_000))
	seq := overallRows(t, 1, suite)
	par := overallRows(t, 4, suite)
	for i := range seq {
		for name, r := range seq[i].Results {
			if par[i].Results[name] != r {
				t.Errorf("%s/%s differs between parallel and sequential runs", seq[i].Spec.Name, name)
			}
		}
	}
}

func TestRenameWrapsPredictor(t *testing.T) {
	p := experiments.Rename(core.New(core.DefaultConfig()), "custom-name")
	if p.Name() != "custom-name" {
		t.Errorf("Name = %q", p.Name())
	}
	p.Update(0x10, 0x5000)
	if tgt, ok := p.Predict(0x10); !ok || tgt != 0x5000 {
		t.Error("renamed predictor does not delegate")
	}
}

// TestRenameKeepsSpanFeeder: a renamed predictor exposes the
// predictor.SpanFeeder fast path exactly when the wrapped one does, and a
// tape replay through the wrapper matches the unrenamed predictor.
func TestRenameKeepsSpanFeeder(t *testing.T) {
	renamed := experiments.Rename(core.New(core.DefaultConfig()), "custom-name")
	if _, ok := renamed.(predictor.SpanFeeder); !ok {
		t.Fatal("Rename hides core.BLBP's SpanFeeder")
	}
	if _, ok := experiments.Rename(btb.NewIndirect(btb.Default32K()), "b").(predictor.SpanFeeder); ok {
		t.Error("Rename claims SpanFeeder for a predictor without one")
	}
	tape, err := sim.NewTape(miniSuite(60_000)[0].Build())
	if err != nil {
		t.Fatal(err)
	}
	got, err := tape.Run(experiments.CondKeyHP, newHP(), []predictor.Indirect{renamed}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tape.Run(experiments.CondKeyHP, newHP(), []predictor.Indirect{core.New(core.DefaultConfig())}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Predictor != "custom-name" {
		t.Errorf("result keyed %q, want custom-name", got[0].Predictor)
	}
	got[0].Predictor = want[0].Predictor
	if got[0] != want[0] {
		t.Errorf("renamed replay %+v, unrenamed %+v", got[0], want[0])
	}
}

func TestFig1RowsSortedByIndirect(t *testing.T) {
	tb, rows := testRunner(t, 0).Fig1(miniSuite(60_000))
	if tb.Rows() != 3 || len(rows) != 3 {
		t.Fatalf("rows = %d/%d, want 3", tb.Rows(), len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Indirect < rows[i-1].Indirect {
			t.Error("Fig1 rows not sorted by indirect prevalence")
		}
	}
	for _, r := range rows {
		if r.PerKilo[trace.CondDirect] <= 0 {
			t.Errorf("%s: no conditional branches", r.Workload)
		}
	}
}

func TestFig6Bounds(t *testing.T) {
	_, rows := testRunner(t, 0).Fig6(miniSuite(60_000))
	for _, r := range rows {
		if r.PolyPct < 0 || r.PolyPct > 100 {
			t.Errorf("%s: PolyPct = %v out of range", r.Workload, r.PolyPct)
		}
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].PolyPct < rows[i-1].PolyPct {
			t.Error("Fig6 rows not sorted")
		}
	}
}

func TestFig7CCDFMonotone(t *testing.T) {
	_, pts := testRunner(t, 0).Fig7(miniSuite(60_000), 16)
	if len(pts) != 16 {
		t.Fatalf("got %d points, want 16", len(pts))
	}
	if pts[0].PctAtLeast < 99.99 {
		t.Errorf("P(targets >= 1) = %v, want 100", pts[0].PctAtLeast)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].PctAtLeast > pts[i-1].PctAtLeast+1e-9 {
			t.Error("CCDF not non-increasing")
		}
	}
}

// TestOverallAndDerivedFigures runs the overall, fig8 and fig9 built-ins
// over one suite; the executor simulates their shared passes once.
func TestOverallAndDerivedFigures(t *testing.T) {
	x := runspec.NewExec(testRunner(t, 0), 0)
	suite := inline(miniSpecs(120_000))
	overall := runBuiltin(t, x, "overall", suite)
	if overall.Table.Rows() != 4 {
		t.Errorf("overall table rows = %d, want 4", overall.Table.Rows())
	}
	// The headline ordering on learnable workloads: BTB worst by far.
	data := overall.Data.(experiments.OverallData)
	if data.Mean(experiments.NameBTB) < 4*data.Mean(experiments.NameBLBP) {
		t.Errorf("BTB mean %.3f not clearly worse than BLBP %.3f",
			data.Mean(experiments.NameBTB), data.Mean(experiments.NameBLBP))
	}
	if f8 := runBuiltin(t, x, "fig8", suite).Table; f8.Rows() != 3 {
		t.Errorf("fig8 rows = %d, want 3", f8.Rows())
	}
	f9 := runBuiltin(t, x, "fig9", suite).Table
	if f9.Rows() != 3 {
		t.Errorf("fig9 rows = %d, want 3", f9.Rows())
	}
	var buf bytes.Buffer
	if err := f9.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mini-") {
		t.Error("fig9 output missing workload names")
	}
}

// blbpArms returns the names and merged configurations of a built-in
// plan's BLBP arms, in plan order.
func blbpArms(t *testing.T, plan string) ([]string, []core.Config) {
	t.Helper()
	p, ok := runspec.Builtin(plan)
	if !ok {
		t.Fatalf("no built-in plan %q", plan)
	}
	e, _ := predictor.Lookup(experiments.NameBLBP)
	var names []string
	var cfgs []core.Config
	for _, pass := range p.Passes {
		for _, spec := range pass.Predictors {
			if spec.Type != experiments.NameBLBP {
				continue
			}
			cfg, err := e.Config(spec.Config)
			if err != nil {
				t.Fatalf("%s arm %s: %v", plan, spec.Name, err)
			}
			names = append(names, spec.Name)
			cfgs = append(cfgs, cfg.(core.Config))
		}
	}
	return names, cfgs
}

// TestAblationVariantsCoverPaperArms: fig10's twelve BLBP arms are §3.6's
// optimization subsets (all off, each alone, each removed, all on), each
// once, and differ from the default configuration in nothing else.
func TestAblationVariantsCoverPaperArms(t *testing.T) {
	names, cfgs := blbpArms(t, "fig10")
	if len(names) != 12 {
		t.Fatalf("got %d arms, want 12", len(names))
	}
	opts := []string{"local", "intervals", "transfer", "adaptive", "selective"}
	seen := map[string]bool{}
	for i, name := range names {
		if seen[name] {
			t.Errorf("arm %q appears twice", name)
		}
		seen[name] = true
		var on [5]bool
		switch name {
		case "all-on":
			on = [5]bool{true, true, true, true, true}
		case "all-off":
		default:
			mode, opt, _ := strings.Cut(name, "-")
			k := slices.Index(opts, opt)
			if k < 0 || (mode != "only" && mode != "no") {
				t.Errorf("arm %q is not a §3.6 subset", name)
				continue
			}
			for j := range on {
				on[j] = (j == k) == (mode == "only")
			}
		}
		want := core.DefaultConfig().WithAllOptimizations(on[0], on[1], on[2], on[3], on[4])
		if !reflect.DeepEqual(cfgs[i], want) {
			t.Errorf("%s: merged config %+v, want the default with optimizations %v", name, cfgs[i], on)
		}
	}
}

func TestFig10PassesOnMiniSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	x := runspec.NewExec(testRunner(t, 0), 0)
	mean := map[string]float64{}
	for _, r := range runBuiltin(t, x, "fig10", inline(miniSpecs(80_000))).Data.([]runspec.Fig10Row) {
		mean[r.Variant] = r.MeanMPKI
	}
	if mean["all-on"] >= mean["all-off"] {
		t.Errorf("all-on (%.3f) not better than all-off (%.3f)", mean["all-on"], mean["all-off"])
	}
}

// TestAssocVariantsGeometry: fig11's arms sweep associativity 4 to 64,
// each holding the default's 4,096 IBTB entries.
func TestAssocVariantsGeometry(t *testing.T) {
	names, cfgs := blbpArms(t, "fig11")
	if len(names) != 5 {
		t.Fatalf("got %d arms, want 5", len(names))
	}
	for i, cfg := range cfgs {
		if got, want := cfg.IBTB.Assoc, 4<<i; got != want || names[i] != fmt.Sprintf("assoc-%d", want) {
			t.Errorf("arm %d: %s at %d ways, want assoc-%d", i, names[i], got, want)
		}
		if cfg.IBTB.Sets*cfg.IBTB.Assoc != 4096 {
			t.Errorf("%s: entries = %d, want 4096", names[i], cfg.IBTB.Sets*cfg.IBTB.Assoc)
		}
	}
}

func TestFig11PassesOnMiniSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	// Use a workload with many polymorphic branches so associativity has
	// something to do.
	specs := []wspec.WorkloadSpec{{
		Name: "assoc-load", Category: "T", Instructions: 150_000,
		Generator: leaf("vdispatch", workload.VDispatchParams{
			Classes: 12, Sites: 24, Objects: 96, MethodWork: 20, MethodConds: 1,
		}),
	}}
	x := runspec.NewExec(testRunner(t, 0), 0)
	mean := map[string]float64{}
	for _, r := range runBuiltin(t, x, "fig11", inline(specs)).Data.([]runspec.Fig11Row) {
		mean[r.Label] = r.MeanMPKI
	}
	// Higher associativity must not be dramatically worse than lower.
	if mean["assoc-64"] > mean["assoc-4"]*1.5 {
		t.Errorf("assoc-64 (%.3f) much worse than assoc-4 (%.3f)", mean["assoc-64"], mean["assoc-4"])
	}
}

func TestBudgetsAndTables(t *testing.T) {
	budgets := experiments.Budgets()
	if len(budgets) != 4 {
		t.Fatalf("got %d budgets", len(budgets))
	}
	for _, b := range budgets {
		if b.Bits <= 0 {
			t.Errorf("%s: non-positive bits", b.Predictor)
		}
	}
	// BLBP and ITTAGE must be within the same iso-budget class (the
	// paper's central comparison) — within 25% of each other.
	var blbpBits, ittageBits int
	for _, b := range budgets {
		switch b.Predictor {
		case experiments.NameBLBP:
			blbpBits = b.Bits
		case experiments.NameITTAGE:
			ittageBits = b.Bits
		}
	}
	ratio := float64(blbpBits) / float64(ittageBits)
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("BLBP/ITTAGE budget ratio = %.2f, want iso-budget (0.75-1.25)", ratio)
	}

	t1 := experiments.Table1(wspec.Suite(1_000))
	if t1.Rows() != 8 { // 7 categories + total
		t.Errorf("table1 rows = %d, want 8", t1.Rows())
	}
	t2 := experiments.Table2()
	if t2.Rows() != 4 {
		t.Errorf("table2 rows = %d, want 4", t2.Rows())
	}
}

func TestAnalyzeSuiteOrder(t *testing.T) {
	specs := miniSuite(30_000)
	stats := testRunner(t, 2).AnalyzeSuite(specs)
	if len(stats) != len(specs) {
		t.Fatalf("got %d stats", len(stats))
	}
	for i, st := range stats {
		if st.Name != specs[i].Name {
			t.Errorf("stats[%d] = %s, want %s (order must match)", i, st.Name, specs[i].Name)
		}
	}
}

// TestRunnerBuildsEachTraceOnce runs an analysis plan and two simulation
// plans over one suite on one Runner and asserts via the cache counters
// that each workload's trace was constructed exactly once.
func TestRunnerBuildsEachTraceOnce(t *testing.T) {
	specs := miniSpecs(30_000)
	r := testRunner(t, 0)
	x := runspec.NewExec(r, 0)
	for _, name := range []string{"fig1", "overall", "cottage"} {
		runBuiltin(t, x, name, inline(specs))
	}
	st := r.Cache().Stats()
	if st.Builds != int64(len(specs)) {
		t.Errorf("cache builds = %d, want %d (one per workload)", st.Builds, len(specs))
	}
	if st.Misses != int64(len(specs)) {
		t.Errorf("cache misses = %d, want %d", st.Misses, len(specs))
	}
	if st.Hits == 0 {
		t.Error("no cache hits across three plans")
	}
}

// TestTapeSharedCondMatchesFullSimulation cross-checks the engine split: a
// pass run through the shared tape (CondKeyHP) must produce exactly the
// numbers the monolithic simulation produces.
func TestTapeSharedCondMatchesFullSimulation(t *testing.T) {
	specs := miniSuite(60_000)
	rows, err := testRunner(t, 0).RunSuites([][]workload.Spec{specs},
		[]experiments.Pass{blbpPass(experiments.CondKeyHP, newHP)})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want, err := sim.Run(spec.Build(), newHP(), []predictor.Indirect{core.New(core.DefaultConfig())}, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := rows[0][i].Results[experiments.NameBLBP]; got != want[0] {
			t.Errorf("%s: tape result %+v != full simulation %+v", spec.Name, got, want[0])
		}
	}
}
