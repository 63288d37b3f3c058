package experiments_test

import (
	"bytes"
	"testing"

	"blbp/internal/experiments"
	"blbp/internal/runspec"
	"blbp/internal/tracecache"
)

// renderDriverCSV runs a small subset of the built-in plans on a private
// Runner with the given worker count and renders every produced table to
// CSV in order — the same bytes cmd/experiments would write for these
// plans.
func renderDriverCSV(t *testing.T, workers int) []byte {
	csv, _ := renderDriverCSVConfig(t, workers, tracecache.Config{})
	return csv
}

// renderDriverCSVConfig is renderDriverCSV over a Runner whose private
// trace cache is built from cfg; it also returns the cache counters so
// the warm-start gate below can assert where traces came from. The plans
// run through runspec's compiled passes, so their predictor sets are
// Reset and reused across workloads exactly as in a real run.
func renderDriverCSVConfig(t *testing.T, workers int, cfg tracecache.Config) ([]byte, tracecache.Stats) {
	t.Helper()
	r := experiments.NewRunnerConfig(workers, cfg)
	defer r.Close()
	x := runspec.NewExec(r, 0)
	mini := inline(miniSpecs(60_000))
	// Two independently seeded draws of the standard suite in one wave.
	draws := runspec.Suite{Base: 30_000, Salts: []string{"", "x"}}

	var buf bytes.Buffer
	for _, run := range []struct {
		plan  string
		suite runspec.Suite
	}{
		{"overall", mini}, {"fig8", mini}, {"fig9", mini}, {"seeds", draws},
	} {
		if err := runBuiltin(t, x, run.plan, run.suite).Table.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), r.Cache().Stats()
}

// TestDriverCSVDeterministicAcrossParallelism is the golden determinism
// gate: the CSV bytes of a plan subset must be identical at -parallel 1
// and -parallel 8. Any map-order leak, shared-state race, predictor set
// that a Reset leaves dirty, or schedule-dependent reassembly in the
// results path shows up here as a byte diff.
func TestDriverCSVDeterministicAcrossParallelism(t *testing.T) {
	seq := renderDriverCSV(t, 1)
	par := renderDriverCSV(t, 8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("driver CSV differs between 1 and 8 workers:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s", seq, par)
	}
}

// TestDriverCSVDeterministicWarmStart is the persistence gate: a cold run
// that keeps its spill directory, then a warm run over the same directory,
// must produce byte-identical CSVs — and the warm run must build nothing,
// serving every trace from the preloaded spill tier.
func TestDriverCSVDeterministicWarmStart(t *testing.T) {
	cfg := tracecache.Config{SpillDir: t.TempDir(), KeepSpill: true}
	cold, coldStats := renderDriverCSVConfig(t, 0, cfg)
	if coldStats.Builds == 0 {
		t.Fatal("cold run built nothing; spill directory was not empty")
	}
	warm, warmStats := renderDriverCSVConfig(t, 0, cfg)
	if warmStats.Builds != 0 {
		t.Errorf("warm run builds = %d, want 0 (spill loads = %d, spill errors = %d)",
			warmStats.Builds, warmStats.SpillLoads, warmStats.SpillErrors)
	}
	if warmStats.SpillErrors != 0 {
		t.Errorf("warm run spill errors = %d, want 0", warmStats.SpillErrors)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("driver CSV differs between cold and warm start:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
}
