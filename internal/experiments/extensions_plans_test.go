package experiments_test

import (
	"fmt"
	"testing"

	"blbp/internal/core"
	"blbp/internal/runspec"
)

// extensionData runs the named extension built-in over the mini suite at
// instr instructions per workload and returns its output's data.
func extensionData(t *testing.T, name string, instr int64) any {
	t.Helper()
	if testing.Short() {
		t.Skip("slow integration")
	}
	x := runspec.NewExec(testRunner(t, 0), 0)
	return runBuiltin(t, x, name, inline(miniSpecs(instr))).Data
}

func TestExtrasPassOnMiniSuite(t *testing.T) {
	mean := extensionData(t, "extras", 80_000).(map[string]float64)
	// The lineage ordering on learnable workloads: plain BTB worst, the
	// history-based classics in between, modern predictors best.
	if !(mean["btb"] > mean["targetcache"]) {
		t.Errorf("target cache (%.3f) should beat plain BTB (%.3f)", mean["targetcache"], mean["btb"])
	}
	if !(mean["btb"] > mean["cascaded"]) {
		t.Errorf("cascaded (%.3f) should beat plain BTB (%.3f)", mean["cascaded"], mean["btb"])
	}
	if !(mean["cascaded"] > mean["blbp"]) {
		t.Errorf("BLBP (%.3f) should beat cascaded (%.3f)", mean["blbp"], mean["cascaded"])
	}
}

func TestTargetBitsPassesOnMiniSuite(t *testing.T) {
	mean := extensionData(t, "targetbits", 60_000).(map[string]float64)
	// Folding target bits into history must help on target-sequence
	// workloads: 2 bits should beat 0 bits.
	if mean["targetbits-2"] >= mean["targetbits-0"] {
		t.Errorf("targetbits-2 (%.3f) not better than targetbits-0 (%.3f)",
			mean["targetbits-2"], mean["targetbits-0"])
	}
}

func TestArraysPassesOnMiniSuite(t *testing.T) {
	mean := extensionData(t, "arrays", 60_000).(map[string]float64)
	if mean["arrays-8"] <= 0 {
		t.Error("arrays-8 missing or zero")
	}
}

// TestGeometricIntervalsValid: each arrays arm's n-1 geometric intervals
// are well formed and reach the full 630-bit history depth.
func TestGeometricIntervalsValid(t *testing.T) {
	names, cfgs := blbpArms(t, "arrays")
	for i, cfg := range cfgs {
		var n int
		fmt.Sscanf(names[i], "arrays-%d", &n)
		if cfg.SubPredictors() != n || len(cfg.GEHLLengths) != n-1 {
			t.Errorf("%s: %d intervals and %d GEHL lengths, want %d", names[i], len(cfg.Intervals), len(cfg.GEHLLengths), n-1)
			continue
		}
		if last := cfg.Intervals[n-2]; last.Hi != 630 {
			t.Errorf("%s: last interval ends at %d, want 630", names[i], last.Hi)
		}
		for k, iv := range cfg.Intervals {
			if iv.Lo < 0 || iv.Hi <= iv.Lo {
				t.Errorf("%s: interval %d = %+v malformed", names[i], k, iv)
			}
		}
	}
}

// TestArraysVariantsStorageRoughlyConstant: the arrays arms scale their
// rows so weight storage stays in the default's class.
func TestArraysVariantsStorageRoughlyConstant(t *testing.T) {
	names, cfgs := blbpArms(t, "arrays")
	if len(names) != 6 {
		t.Fatalf("got %d arms, want 6", len(names))
	}
	ref := core.New(core.DefaultConfig()).StorageBits()
	for i, cfg := range cfgs {
		ratio := float64(core.New(cfg).StorageBits()) / float64(ref)
		// Power-of-two row rounding makes storage vary; it must stay in
		// the same class.
		if ratio < 0.6 || ratio > 1.2 {
			t.Errorf("%s: storage ratio %.2f vs default, want ~1", names[i], ratio)
		}
	}
}

// TestTargetBitsVariants: targetbits sweeps GlobalTargetBits 0, 1, 2 and 4.
func TestTargetBitsVariants(t *testing.T) {
	names, cfgs := blbpArms(t, "targetbits")
	want := []int{0, 1, 2, 4}
	if len(cfgs) != len(want) {
		t.Fatalf("got %d arms, want %d", len(cfgs), len(want))
	}
	for i, cfg := range cfgs {
		if cfg.GlobalTargetBits != want[i] || names[i] != fmt.Sprintf("targetbits-%d", want[i]) {
			t.Errorf("arm %d: %s folds %d target bits, want targetbits-%d", i, names[i], cfg.GlobalTargetBits, want[i])
		}
	}
}

func TestCombinedPassesOnMiniSuite(t *testing.T) {
	res := extensionData(t, "combined", 80_000).(runspec.CombinedResult)
	if res.ConsolidatedBits >= res.DedicatedBits {
		t.Errorf("consolidated storage %d not below dedicated %d", res.ConsolidatedBits, res.DedicatedBits)
	}
	// The consolidated predictor must remain in the same accuracy class:
	// conditional accuracy within 3 points, indirect MPKI within 2x.
	if res.ConsolidatedCondAcc < res.DedicatedCondAcc-0.03 {
		t.Errorf("consolidated cond accuracy %.3f too far below dedicated %.3f",
			res.ConsolidatedCondAcc, res.DedicatedCondAcc)
	}
	if res.ConsolidatedIndirectMPKI > 2*res.DedicatedIndirectMPKI {
		t.Errorf("consolidated indirect MPKI %.3f more than 2x dedicated %.3f",
			res.ConsolidatedIndirectMPKI, res.DedicatedIndirectMPKI)
	}
}

func TestHierarchyPassOnMiniSuite(t *testing.T) {
	res := extensionData(t, "hierarchy", 80_000).(runspec.HierarchyResult)
	// The hierarchy must land between the 8-way and 64-way monoliths (or
	// at least not be worse than plain 8-way).
	if res.HierMPKI > res.Mono8MPKI*1.1 {
		t.Errorf("hierarchy MPKI %.3f worse than monolithic 8-way %.3f", res.HierMPKI, res.Mono8MPKI)
	}
	if res.HierL2Rate <= 0 || res.HierL2Rate > 1 {
		t.Errorf("L2 probe rate %.3f out of range", res.HierL2Rate)
	}
}

func TestCottagePassesOnMiniSuite(t *testing.T) {
	res := extensionData(t, "cottage", 80_000).(runspec.CottageResult)
	// Both pairings must be functional: conditional accuracy well above
	// chance, indirect MPKI finite and below the BTB class.
	if res.HPCondAcc < 0.8 || res.TAGECondAcc < 0.8 {
		t.Errorf("cond accuracies %.3f / %.3f below sanity floor", res.HPCondAcc, res.TAGECondAcc)
	}
	if res.BLBPMPKI <= 0 || res.ITTAGEMPKI <= 0 {
		t.Error("missing indirect MPKI data")
	}
}

func TestSeedsDrawsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration")
	}
	x := runspec.NewExec(testRunner(t, 0), 0)
	suite := runspec.Suite{Base: 20_000, Salts: []string{"", "x"}}
	draws := runBuiltin(t, x, "seeds", suite).Data.([]runspec.SeedsRow)
	if len(draws) != 2 {
		t.Fatalf("draws = %d", len(draws))
	}
	if draws[0].ITTAGEMean == draws[1].ITTAGEMean && draws[0].BLBPMean == draws[1].BLBPMean {
		t.Error("salted draw produced identical results; salt not applied")
	}
}
