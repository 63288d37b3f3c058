package runspec

import (
	"reflect"
	"testing"

	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/experiments"
	"blbp/internal/predictor"
)

// mergeBack applies a diff to a FRESH default config and returns the
// result. The freshness matters: decoding a slice override reuses the
// target's backing array, so merging onto one long-lived default value
// would let each merge corrupt the next comparison.
func mergeBack(t *testing.T, diff []byte) any {
	t.Helper()
	got, err := predictor.MergeJSON(core.DefaultConfig(), diff)
	if err != nil {
		t.Fatalf("merging diff %s: %v", diff, err)
	}
	return got
}

// TestDiffConfigRoundTrip: diffConfig's contract is that merging its
// output onto the default reproduces the modified config exactly —
// including nested structs and wholesale-replaced slices.
func TestDiffConfigRoundTrip(t *testing.T) {
	mod := core.DefaultConfig()
	mod.GlobalTargetBits = 0
	mod.IBTB.Assoc = 8
	mod.IBTB.Sets = 512
	mod.UseHierarchicalIBTB = true
	mod.GEHLLengths = []int{1, 2, 4, 8, 16, 32, 64}

	diff, err := diffConfig(core.DefaultConfig(), mod)
	if err != nil {
		t.Fatal(err)
	}
	if got := mergeBack(t, diff); !reflect.DeepEqual(got, mod) {
		t.Errorf("merge(default, diff) = %+v, want %+v\ndiff: %s", got, mod, diff)
	}
}

// TestDiffConfigEqualIsNil: no differences must yield no override object,
// so sweep arms at the default config carry no config noise in plan JSON.
func TestDiffConfigEqualIsNil(t *testing.T) {
	diff, err := diffConfig(core.DefaultConfig(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if diff != nil {
		t.Errorf("diff of equal configs = %s, want nil", diff)
	}
}

func TestDiffConfigRejectsMismatches(t *testing.T) {
	if _, err := diffConfig(core.DefaultConfig(), cond.DefaultTAGEConfig()); err == nil {
		t.Error("diff across distinct types accepted")
	}
	if _, err := diffConfig(42, 43); err == nil {
		t.Error("diff of non-structs accepted")
	}
}

// TestBuiltinSweepDiffsReconstruct: every variant the built-in sweep plans
// serialize must survive the diff→merge lowering bit for bit, or the plan
// would silently simulate a different configuration than the bespoke
// drivers did.
func TestBuiltinSweepDiffsReconstruct(t *testing.T) {
	sweeps := map[string][]experiments.BLBPVariant{
		"fig10":      experiments.AblationVariants(),
		"fig11":      experiments.AssocVariants(nil),
		"arrays":     experiments.ArraysVariants(nil),
		"targetbits": experiments.TargetBitsVariants(),
	}
	for sweep, variants := range sweeps {
		for _, v := range variants {
			diff := mustDiffBLBP(v.Config)
			if got := mergeBack(t, diff); !reflect.DeepEqual(got, v.Config) {
				t.Errorf("%s/%s: reconstructed config differs\ndiff: %s", sweep, v.Name, diff)
			}
		}
	}
}
