package workload

import (
	"math/rand"
	"testing"

	"blbp/internal/trace"
)

// The suite-shape tests (88 workloads, category counts, holdout
// disjointness, default base) live in internal/wspec, where the suites are
// defined; this file tests the generator models and the Spec machinery.

// leaf builds a one-model spec as wspec compiles a leaf generator: seeded
// from its name, fingerprinted by its kind and parameters.
func leaf(name string, instructions int64, kind string, p interface{ New(*rand.Rand) Model }) Spec {
	return NewSpec(name, "T", SeedFor(name), instructions, FingerprintCanon(CanonParams(kind, p)), p.New)
}

func TestBuildDeterministic(t *testing.T) {
	s := leaf("det", 5_000, "vdispatch", VDispatchParams{
		Classes: 6, Sites: 4, Objects: 24, TypeNoise: 0.002,
		MethodWork: 210, MethodConds: 3, CondNoise: 0.004,
		MonoCalls: 1, MonoSites: 40,
	})
	a := s.Build()
	b := s.Build()
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Record(i) != b.Record(i) {
			t.Fatalf("record %d differs between identical builds", i)
		}
	}
}

func TestBuildReachesInstructionBudget(t *testing.T) {
	for _, s := range []Spec{
		leaf("t-i", 20_000, "interpreter", InterpreterParams{Opcodes: 8, ProgramLen: 40, Work: 5, CondPerHandler: 1}),
		leaf("t-s", 20_000, "switcher", SwitcherParams{Tokens: 8, CaseWork: 5, CaseConds: 1}),
		leaf("t-v", 20_000, "vdispatch", VDispatchParams{Classes: 3, Sites: 2, Objects: 16, MethodWork: 5, MethodConds: 1}),
		leaf("t-c", 20_000, "callbacks", CallbacksParams{Events: 4, Skew: 1.2, Wrappers: 2, HandlerWork: 5, HandlerConds: 1}),
		leaf("t-m", 20_000, "mono", MonoParams{Sites: 32, Work: 5}),
	} {
		tr := s.Build()
		got := tr.Instructions()
		if got < 20_000 || got > 21_000 {
			t.Errorf("%s: instructions = %d, want ~20000", s.Name, got)
		}
		if tr.Len() == 0 {
			t.Errorf("%s: empty trace", s.Name)
		}
	}
}

func TestTracesAreValid(t *testing.T) {
	for _, s := range []Spec{
		leaf("v-i", 5_000, "interpreter", InterpreterParams{Opcodes: 12, ProgramLen: 40, Work: 60, CondPerHandler: 2, CondNoise: 0.01, DispatchNoise: 0.01, MonoCalls: 1, MonoSites: 20}),
		leaf("v-s", 5_000, "switcher", SwitcherParams{Tokens: 10, TransitionNoise: 0.02, CaseWork: 50, CaseConds: 2, MonoCalls: 1, MonoSites: 20}),
		leaf("v-c", 5_000, "callbacks", CallbacksParams{Events: 6, Skew: 2.0, Wrappers: 3, HandlerWork: 40, HandlerConds: 2}),
		leaf("v-r", 5_000, "recursive", RecursiveParams{MaxDepth: 30, MinDepth: 5, VisitorClasses: 3, Work: 8}),
	} {
		tr := s.Build()
		for i := 0; i < tr.Len(); i++ {
			r := tr.Record(i)
			if err := r.Validate(); err != nil {
				t.Fatalf("%s record %d: %v", s.Name, i, err)
			}
		}
	}
}

func TestCallReturnBalance(t *testing.T) {
	// Every return must target the instruction after some prior call, and
	// the stack never underflows (Build would panic otherwise). Verify by
	// replaying with a stack.
	s := leaf("bal", 30_000, "vdispatch", VDispatchParams{
		Classes: 4, Sites: 3, Objects: 32, AlternatingSites: 2,
		MethodWork: 6, MethodConds: 2,
	})
	tr := s.Build()
	var stack []uint64
	returns := 0
	for i := 0; i < tr.Len(); i++ {
		r := tr.Record(i)
		switch r.Type {
		case trace.DirectCall, trace.IndirectCall:
			stack = append(stack, r.PC+4)
		case trace.Return:
			if len(stack) == 0 {
				t.Fatalf("record %d: return with empty stack", i)
			}
			want := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if r.Target != want {
				t.Fatalf("record %d: return to %#x, want %#x", i, r.Target, want)
			}
			returns++
		}
	}
	if returns == 0 {
		t.Error("no returns in a vdispatch trace")
	}
}

func TestZipfTable(t *testing.T) {
	cdf := zipfTable(8, 1.2)
	if len(cdf) != 8 {
		t.Fatalf("len = %d", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatal("cdf not monotone")
		}
	}
	if cdf[7] != 1 {
		t.Errorf("cdf[last] = %v, want 1", cdf[7])
	}
	// Head must be the hottest item.
	if cdf[0] < 1.0/8 {
		t.Errorf("cdf[0] = %v; Zipf head should exceed uniform share", cdf[0])
	}
}

func TestDrawCDFMatchesLinearScan(t *testing.T) {
	// The binary search must return exactly what the reference linear scan
	// does — the first index with x <= cdf[i] — or seeded traces change.
	linear := func(cdf []float64, x float64) int {
		for i, c := range cdf {
			if x <= c {
				return i
			}
		}
		return len(cdf) - 1
	}
	for _, n := range []int{1, 2, 8, 96} {
		cdf := zipfTable(n, 1.7)
		ra := rand.New(rand.NewSource(42))
		rb := rand.New(rand.NewSource(42))
		for trial := 0; trial < 2000; trial++ {
			got := drawCDF(cdf, ra)
			want := linear(cdf, rb.Float64())
			if got != want {
				t.Fatalf("n=%d trial %d: drawCDF = %d, linear scan = %d", n, trial, got, want)
			}
		}
	}
}

func BenchmarkDrawCDF(b *testing.B) {
	// The callbacks family draws one event per step; wide tables (the
	// 96-handler server mixes) are where the binary search pays.
	for _, n := range []struct {
		name string
		size int
	}{{"events8", 8}, {"events96", 96}} {
		b.Run(n.name, func(b *testing.B) {
			cdf := zipfTable(n.size, 2.2)
			rng := rand.New(rand.NewSource(7))
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += drawCDF(cdf, rng)
			}
			_ = sink
		})
	}
}

func TestUnwindPCsDisjointFromGeneratorBanks(t *testing.T) {
	// The end-of-trace unwind emits returns in a reserved bank. Its address
	// window must be disjoint from every generator bank — the old fixed
	// 0x3FF000+i*4 PCs could walk into bank 0's window on deep stacks.
	bankWindow := func(bank int) (lo, hi uint64) {
		lo = funcAddr(bank, 0)
		hi = funcAddr(bank+1, 0)
		return
	}
	unwindLo, unwindHi := bankWindow(unwindBank)
	for bank := 0; bank < MaxBank; bank++ {
		lo, hi := bankWindow(bank)
		if lo < unwindHi && unwindLo < hi {
			t.Fatalf("generator bank %d window [%#x,%#x) overlaps unwind bank window [%#x,%#x)",
				bank, lo, hi, unwindLo, unwindHi)
		}
	}
	// End-to-end: a trace that ends mid-recursion (tiny budget, deep burst)
	// exercises the unwind; none of its unwind return PCs may fall in a
	// generator bank window.
	s := leaf("unwind", 300, "recursive", RecursiveParams{MaxDepth: 80, MinDepth: 70, Work: 1})
	tr := s.Build()
	sawUnwind := false
	for ri := 0; ri < tr.Len(); ri++ {
		r := tr.Record(ri)
		if r.Type == trace.Return && r.PC >= unwindLo {
			sawUnwind = true
			if r.PC >= unwindHi {
				t.Fatalf("unwind return PC %#x past the reserved bank window [%#x,%#x)", r.PC, unwindLo, unwindHi)
			}
		}
	}
	if !sawUnwind {
		t.Skip("trace ended balanced; unwind not exercised")
	}
}

func TestSpecWithoutGeneratorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build on generator-less spec did not panic")
		}
	}()
	Spec{Name: "empty"}.Build()
}

func TestRecursiveBalancedAndDeep(t *testing.T) {
	s := leaf("rec", 60_000, "recursive", RecursiveParams{
		MaxDepth: 90, MinDepth: 10, VisitorClasses: 3, Work: 8,
	})
	tr := s.Build()
	var stack []uint64
	maxDepth := 0
	for i := 0; i < tr.Len(); i++ {
		r := tr.Record(i)
		switch r.Type {
		case trace.DirectCall, trace.IndirectCall:
			stack = append(stack, r.PC+4)
			if len(stack) > maxDepth {
				maxDepth = len(stack)
			}
		case trace.Return:
			if len(stack) == 0 {
				t.Fatalf("record %d: unmatched return", i)
			}
			if r.Target != stack[len(stack)-1] {
				t.Fatalf("record %d: return target mismatch", i)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if maxDepth <= 64 {
		t.Errorf("max call depth %d, want > 64 to overflow the RAS", maxDepth)
	}
	st := trace.Analyze(tr)
	if st.Count[trace.Return] == 0 || st.IndirectCount() == 0 {
		t.Error("recursive trace missing returns or indirect calls")
	}
}

func TestRecursiveRASOverflowMispredicts(t *testing.T) {
	// Sanity at the trace level: depths beyond 64 guarantee that a
	// 64-entry RAS replayed over this trace would mispredict some returns.
	s := leaf("rec2", 60_000, "recursive", RecursiveParams{
		MaxDepth: 100, MinDepth: 80, Work: 6,
	})
	tr := s.Build()
	// Emulate a bounded circular RAS.
	const cap = 64
	ras := make([]uint64, 0, cap)
	mispredicts := 0
	for ri := 0; ri < tr.Len(); ri++ {
		r := tr.Record(ri)
		switch r.Type {
		case trace.DirectCall, trace.IndirectCall:
			if len(ras) == cap {
				ras = ras[1:]
			}
			ras = append(ras, r.PC+4)
		case trace.Return:
			if len(ras) == 0 {
				mispredicts++
				continue
			}
			top := ras[len(ras)-1]
			ras = ras[:len(ras)-1]
			if top != r.Target {
				mispredicts++
			}
		}
	}
	if mispredicts == 0 {
		t.Error("expected RAS overflow mispredictions at depth 80-100")
	}
}

func TestRecursiveConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid recursive params accepted")
		}
	}()
	leaf("bad", 1000, "recursive", RecursiveParams{MaxDepth: 5, MinDepth: 10}).Build()
}

func TestMixedConstructorPanics(t *testing.T) {
	cases := []struct {
		name    string
		models  []Model
		weights []int
	}{
		{"empty", nil, nil},
		{"mismatched", []Model{&monoModel{}}, []int{1, 2}},
		{"zero weight", []Model{&monoModel{}}, []int{0}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			NewMixed(c.models, c.weights, false)
		}()
	}
}

func TestMixedRoundRobinFollowsWeights(t *testing.T) {
	// A 2:1 round-robin over two mono models must interleave their PCs in
	// bursts of 2 and 1.
	rng := rand.New(rand.NewSource(1))
	a := newMono(MonoParams{Sites: 1, Work: 1, Bank: 0}, rng)
	b := newMono(MonoParams{Sites: 1, Work: 1, Bank: 1}, rng)
	m := NewMixed([]Model{a, b}, []int{2, 1}, false)
	e := newEmitter("rr", 10_000, 1)
	banks := []int{}
	for i := 0; i < 9; i++ {
		before := e.cols.Len()
		m.step(e, rng)
		// Identify which bank emitted by inspecting the new records' PCs.
		for ri := before; ri < e.cols.Len(); ri++ {
			r := e.cols.Record(ri)
			if r.Type == trace.IndirectCall {
				bank := 0
				if r.PC >= 0x40_0000+1<<24 {
					bank = 1
				}
				banks = append(banks, bank)
				break
			}
		}
	}
	want := []int{0, 0, 1, 0, 0, 1, 0, 0, 1}
	for i := range want {
		if banks[i] != want[i] {
			t.Fatalf("burst pattern = %v, want %v", banks, want)
		}
	}
}

func TestMixedRandomModeDeterministicPerSeed(t *testing.T) {
	build := func() *trace.Columns {
		return NewSpec("mix-rand", "T", SeedFor("mix-rand"), 20_000, 0,
			func(rng *rand.Rand) Model {
				return NewMixed([]Model{
					MonoParams{Sites: 4, Work: 5, Bank: 0}.New(rng),
					MonoParams{Sites: 4, Work: 5, Bank: 1}.New(rng),
				}, []int{1, 3}, true)
			}).Build()
	}
	a, b := build(), build()
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := 0; i < a.Len(); i++ {
		if a.Record(i) != b.Record(i) {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestPhasesSwitchAtBoundary(t *testing.T) {
	// A two-phase schedule over two mono banks must emit only bank 0 before
	// the boundary and only bank 1 after it (with at most one straddling
	// step).
	spec := NewSpec("phased", "T", 3, 20_000, 0, func(rng *rand.Rand) Model {
		return NewPhases([]Phase{
			{Until: 10_000, Model: MonoParams{Sites: 2, Work: 5, Bank: 0}.New(rng)},
			{Until: 0, Model: MonoParams{Sites: 2, Work: 5, Bank: 1}.New(rng)},
		})
	})
	tr := spec.Build()
	var instr int64
	bank1Start := int64(-1)
	for ri := 0; ri < tr.Len(); ri++ {
		r := tr.Record(ri)
		instr += int64(r.InstrBefore) + 1
		if r.Type == trace.IndirectCall {
			inBank1 := r.PC >= 0x40_0000+1<<24
			if inBank1 && bank1Start < 0 {
				bank1Start = instr
			}
			if !inBank1 && bank1Start >= 0 {
				t.Fatalf("bank 0 record at instruction %d after phase 2 began at %d", instr, bank1Start)
			}
		}
	}
	if bank1Start < 0 {
		t.Fatal("phase 2 never ran")
	}
	if bank1Start < 10_000 || bank1Start > 11_000 {
		t.Errorf("phase 2 began at instruction %d, want just past the 10000 boundary", bank1Start)
	}
}

func TestWithRngIsolatesClientStreams(t *testing.T) {
	// Two builds whose shared rng is consumed differently between steps
	// must still produce identical records from a WithRng-bound client.
	build := func(extraDraws int) *trace.Columns {
		return NewSpec("seeded-client", "T", 9, 8_000, 0, func(rng *rand.Rand) Model {
			crng := rand.New(rand.NewSource(1234))
			client := WithRng(CallbacksParams{Events: 6, Skew: 2.0, Wrappers: 2, HandlerWork: 10, HandlerConds: 1}.New(crng), crng)
			for i := 0; i < extraDraws; i++ {
				rng.Int63() // perturb the shared stream
			}
			return client
		}).Build()
	}
	a, b := build(0), build(5)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Record(i) != b.Record(i) {
			t.Fatalf("record %d differs; per-client stream leaked shared-rng state", i)
		}
	}
}

func TestFingerprintDistinguishesParams(t *testing.T) {
	a := leaf("same-name", 1_000, "mono", MonoParams{Sites: 4, Work: 5})
	b := leaf("same-name", 1_000, "mono", MonoParams{Sites: 8, Work: 5})
	if a.Fingerprint == b.Fingerprint {
		t.Error("different parameters produced equal fingerprints")
	}
	if a.Identity() == b.Identity() {
		t.Error("identities collide across parameter changes")
	}
	c := leaf("same-name", 1_000, "mono", MonoParams{Sites: 4, Work: 5})
	if a.Identity() != c.Identity() {
		t.Error("identical specs disagree on identity")
	}
}
