package experiments

import (
	"testing"

	"blbp/internal/btb"
	"blbp/internal/cascaded"
	"blbp/internal/combined"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/ittage"
	"blbp/internal/predictor"
	"blbp/internal/targetcache"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

func TestGeometricIntervalsValid(t *testing.T) {
	for _, n := range []int{1, 3, 7, 21, 43} {
		intervals, lengths := geometricIntervals(n, 630)
		if len(intervals) != n || len(lengths) != n {
			t.Fatalf("n=%d: got %d intervals, %d lengths", n, len(intervals), len(lengths))
		}
		cfg := core.DefaultConfig()
		cfg.Intervals = intervals
		cfg.GEHLLengths = lengths
		if err := cfg.Validate(); err != nil {
			t.Errorf("n=%d: invalid config: %v", n, err)
		}
		if intervals[n-1].Hi != 630 {
			t.Errorf("n=%d: last interval ends at %d, want 630", n, intervals[n-1].Hi)
		}
		for i, iv := range intervals {
			if iv.Lo < 0 || iv.Hi <= iv.Lo {
				t.Errorf("n=%d: interval %d = %+v malformed", n, i, iv)
			}
		}
	}
}

func TestArraysVariantsStorageRoughlyConstant(t *testing.T) {
	variants := ArraysVariants(nil)
	if len(variants) < 4 {
		t.Fatalf("got %d variants", len(variants))
	}
	ref := core.New(core.DefaultConfig()).StorageBits()
	for _, v := range variants {
		got := core.New(v.Config).StorageBits()
		ratio := float64(got) / float64(ref)
		// Power-of-two row rounding makes storage vary; it must stay in
		// the same class.
		if ratio < 0.6 || ratio > 1.2 {
			t.Errorf("%s: storage ratio %.2f vs default, want ~1", v.Name, ratio)
		}
	}
}

func TestTargetBitsVariants(t *testing.T) {
	vs := TargetBitsVariants()
	if len(vs) != 4 {
		t.Fatalf("got %d variants", len(vs))
	}
	seen := map[int]bool{}
	for _, v := range vs {
		seen[v.Config.GlobalTargetBits] = true
		if err := v.Config.Validate(); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
	}
	for _, n := range []int{0, 1, 2, 4} {
		if !seen[n] {
			t.Errorf("missing GlobalTargetBits=%d variant", n)
		}
	}
}

func TestExtrasPassOnMiniSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	pass := Shared(CondKeyHP, func() (cond.Predictor, []predictor.Indirect) {
		twoBit := btb.Default32K()
		twoBit.Hysteresis = true
		return newHP(), []predictor.Indirect{
			btb.NewIndirect(btb.Default32K()),
			btb.NewIndirect(twoBit),
			targetcache.New(targetcache.DefaultConfig()),
			cascaded.New(cascaded.DefaultConfig()),
			ittage.New(ittage.DefaultConfig()),
			core.New(core.DefaultConfig()),
		}
	})
	rows, err := testRunner(t).RunSuite(miniSuite(80_000), []Pass{pass})
	if err != nil {
		t.Fatal(err)
	}
	// The lineage ordering on learnable workloads: plain BTB worst, the
	// history-based classics in between, modern predictors best.
	if !(meanOf(rows, "btb") > meanOf(rows, "targetcache")) {
		t.Errorf("target cache (%.3f) should beat plain BTB (%.3f)", meanOf(rows, "targetcache"), meanOf(rows, "btb"))
	}
	if !(meanOf(rows, "btb") > meanOf(rows, "cascaded")) {
		t.Errorf("cascaded (%.3f) should beat plain BTB (%.3f)", meanOf(rows, "cascaded"), meanOf(rows, "btb"))
	}
	if !(meanOf(rows, "cascaded") > meanOf(rows, "blbp")) {
		t.Errorf("BLBP (%.3f) should beat cascaded (%.3f)", meanOf(rows, "blbp"), meanOf(rows, "cascaded"))
	}
}

func TestTargetBitsPassesOnMiniSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	passes := BLBPVariantsPasses(TargetBitsVariants())
	rows, err := testRunner(t).RunSuite(miniSuite(60_000), passes)
	if err != nil {
		t.Fatal(err)
	}
	// Folding target bits into history must help on target-sequence
	// workloads: 2 bits should beat 0 bits.
	if meanOf(rows, "targetbits-2") >= meanOf(rows, "targetbits-0") {
		t.Errorf("targetbits-2 (%.3f) not better than targetbits-0 (%.3f)",
			meanOf(rows, "targetbits-2"), meanOf(rows, "targetbits-0"))
	}
}

func TestArraysPassesOnMiniSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	passes := BLBPVariantsPasses(ArraysVariants(nil))
	rows, err := testRunner(t).RunSuite(miniSuite(60_000), passes)
	if err != nil {
		t.Fatal(err)
	}
	if meanOf(rows, "arrays-8") <= 0 {
		t.Error("arrays-8 missing or zero")
	}
}

func TestCombinedPassesOnMiniSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	dedicated := Shared(CondKeyHP, func() (cond.Predictor, []predictor.Indirect) {
		return newHP(), []predictor.Indirect{core.New(core.DefaultConfig())}
	})
	consolidated := Exclusive(func() (cond.Predictor, []predictor.Indirect) {
		p := combined.New(core.DefaultConfig())
		return p, []predictor.Indirect{p.Indirect()}
	})
	rows, err := testRunner(t).RunSuite(miniSuite(80_000), []Pass{dedicated, consolidated})
	if err != nil {
		t.Fatal(err)
	}
	dedBits := cond.NewHashedPerceptron(cond.DefaultHPConfig()).StorageBits() +
		core.New(core.DefaultConfig()).StorageBits()
	conBits := combined.New(core.DefaultConfig()).StorageBits()
	if conBits >= dedBits {
		t.Errorf("consolidated storage %d not below dedicated %d", conBits, dedBits)
	}
	var dedAcc, conAcc float64
	for _, r := range rows {
		dedAcc += r.Results[NameBLBP].CondAccuracy()
		conAcc += r.Results["combined"].CondAccuracy()
	}
	dedAcc /= float64(len(rows))
	conAcc /= float64(len(rows))
	// The consolidated predictor must remain in the same accuracy class:
	// conditional accuracy within 3 points, indirect MPKI within 2x.
	if conAcc < dedAcc-0.03 {
		t.Errorf("consolidated cond accuracy %.3f too far below dedicated %.3f", conAcc, dedAcc)
	}
	if meanOf(rows, "combined") > 2*meanOf(rows, NameBLBP) {
		t.Errorf("consolidated indirect MPKI %.3f more than 2x dedicated %.3f",
			meanOf(rows, "combined"), meanOf(rows, NameBLBP))
	}
}

func TestHierarchyPassOnMiniSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	mono8 := core.DefaultConfig()
	mono8.IBTB.Assoc = 8
	mono8.IBTB.Sets = 512
	hier := core.DefaultConfig()
	hier.UseHierarchicalIBTB = true
	specs := miniSuite(80_000)
	// Each task writes only its own workload's slot, so the retention is
	// parallel-safe and read in deterministic spec order after the run.
	insts := make([]*core.BLBP, len(specs))
	pass := Pass{CondKey: CondKeyHP, New: func(w int) (cond.Predictor, []predictor.Indirect, func()) {
		h := core.New(hier)
		insts[w] = h
		return newHP(), []predictor.Indirect{
			Rename(core.New(core.DefaultConfig()), "mono-64way"),
			Rename(core.New(mono8), "mono-8way"),
			Rename(h, "hierarchy"),
		}, nil
	}}
	rows, err := testRunner(t).RunSuite(specs, []Pass{pass})
	if err != nil {
		t.Fatal(err)
	}
	// The hierarchy must land between the 8-way and 64-way monoliths (or
	// at least not be worse than plain 8-way).
	if meanOf(rows, "hierarchy") > meanOf(rows, "mono-8way")*1.1 {
		t.Errorf("hierarchy MPKI %.3f worse than monolithic 8-way %.3f",
			meanOf(rows, "hierarchy"), meanOf(rows, "mono-8way"))
	}
	var rate float64
	for _, h := range insts {
		rate += h.L2ProbeRate()
	}
	rate /= float64(len(insts))
	if rate <= 0 || rate > 1 {
		t.Errorf("L2 probe rate %.3f out of range", rate)
	}
}

func TestCottagePassesOnMiniSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	passes := []Pass{
		Shared(CondKeyHP, func() (cond.Predictor, []predictor.Indirect) {
			return newHP(), []predictor.Indirect{core.New(core.DefaultConfig())}
		}),
		Shared(CondKeyTAGE, func() (cond.Predictor, []predictor.Indirect) {
			return cond.NewTAGE(cond.DefaultTAGEConfig()), []predictor.Indirect{ittage.New(ittage.DefaultConfig())}
		}),
	}
	rows, err := testRunner(t).RunSuite(miniSuite(80_000), passes)
	if err != nil {
		t.Fatal(err)
	}
	var hpAcc, tgAcc float64
	for _, r := range rows {
		hpAcc += r.Results[NameBLBP].CondAccuracy()
		tgAcc += r.Results[NameITTAGE].CondAccuracy()
	}
	hpAcc /= float64(len(rows))
	tgAcc /= float64(len(rows))
	// Both pairings must be functional: conditional accuracy well above
	// chance, indirect MPKI finite and below the BTB class.
	if hpAcc < 0.8 || tgAcc < 0.8 {
		t.Errorf("cond accuracies %.3f / %.3f below sanity floor", hpAcc, tgAcc)
	}
	if meanOf(rows, NameBLBP) <= 0 || meanOf(rows, NameITTAGE) <= 0 {
		t.Error("missing indirect MPKI data")
	}
}

func TestLatencyHistogramOnMiniSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	specs := miniSuite(60_000)
	insts := make([]*core.BLBP, len(specs))
	pass := Pass{CondKey: CondKeyHP, New: func(w int) (cond.Predictor, []predictor.Indirect, func()) {
		p := core.New(core.DefaultConfig())
		insts[w] = p
		return newHP(), []predictor.Indirect{p}, nil
	}}
	if _, err := testRunner(t).RunSuite(specs, []Pass{pass}); err != nil {
		t.Fatal(err)
	}
	var total, oneCycle int64
	for _, p := range insts {
		for n, v := range p.CandidateHistogram() {
			total += v
			if n <= 5 {
				oneCycle += v
			}
		}
	}
	if total == 0 {
		t.Fatal("no predictions recorded in candidate histogram")
	}
	if oneCycle <= 0 || oneCycle > total {
		t.Errorf("one-cycle count %d out of range (total %d)", oneCycle, total)
	}
}

func TestSeedsDrawsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	suites := [][]workload.Spec{wspec.SuiteSeeded(20_000, ""), wspec.SuiteSeeded(20_000, "x")}
	results, err := testRunner(t).RunSuites(suites, StandardPasses())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("draws = %d", len(results))
	}
	if meanOf(results[0], NameITTAGE) == meanOf(results[1], NameITTAGE) &&
		meanOf(results[0], NameBLBP) == meanOf(results[1], NameBLBP) {
		t.Error("salted draw produced identical results; salt not applied")
	}
}
