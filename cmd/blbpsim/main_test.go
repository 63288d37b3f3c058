package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blbp"
	"blbp/internal/trace"
)

func TestListRuns(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run(-list): %v", err)
	}
}

func TestWorkloadSimulation(t *testing.T) {
	err := run([]string{"-workload", "252.eon", "-base", "40000", "-predictors", "blbp,btb"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestVPCPredictorPath(t *testing.T) {
	err := run([]string{"-workload", "holdout-interp-1", "-base", "30000", "-predictors", "vpc"})
	if err != nil {
		t.Fatalf("run with vpc: %v", err)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trc")
	// Write a trace through the public API, then simulate it via -trace.
	spec := blbp.NewSwitcherWorkload("rt", "test", 15_000, blbp.SwitcherParams{
		Tokens: 6, CaseWork: 20, CaseConds: 1,
	})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := blbp.WriteTrace(f, spec.Build()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{"-trace", path, "-predictors", "blbp,ittage"}); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
}

// TestTraceFileMatchesWorkload: simulating a workload's trace file renders
// the CSV that simulating the workload itself renders.
func TestTraceFileMatchesWorkload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "eon.trc")
	spec := blbp.Workloads(4000)[0]
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := blbp.WriteTrace(f, spec.Build()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fromFile, fromWorkload := filepath.Join(dir, "file.csv"), filepath.Join(dir, "workload.csv")
	if err := run([]string{"-trace", path, "-csv", fromFile}); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	if err := run([]string{"-workload", spec.Name, "-base", "4000", "-csv", fromWorkload}); err != nil {
		t.Fatalf("run -workload: %v", err)
	}
	a, errA := os.ReadFile(fromFile)
	b, errB := os.ReadFile(fromWorkload)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if string(a) != string(b) {
		t.Errorf("-trace CSV differs from -workload CSV:\n%s\nvs\n%s", a, b)
	}
}

// TestTraceFileRefusesOldFormat: a file in BLBPTRC1, the format tracegen
// wrote before SPL3, is refused as not-SPL3 with a pointer to tracegen gen.
func TestTraceFileRefusesOldFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.trc")
	// Magic, name "wl", one taken CondDirect record: 3 instructions before,
	// PC 0x400000, target 0x400020.
	if err := os.WriteFile(path, []byte("BLBPTRC1\x02wl\x01\x08\x03\x80\x80\x80\x02\x20"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-trace", path})
	if !errors.Is(err, trace.ErrBadSpillMagic) {
		t.Fatalf("-trace of a BLBPTRC1 file: err = %v, want ErrBadSpillMagic", err)
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "tracegen gen") {
		t.Errorf("error %q should name the file and say to regenerate it with tracegen gen", err)
	}
}

func TestConfigOverride(t *testing.T) {
	err := run([]string{"-workload", "252.eon", "-base", "30000",
		"-predictors", "blbp,ittage",
		"-config", `blbp={"GlobalTargetBits":0}`,
		"-config", `ittage={"Tables":6}`})
	if err != nil {
		t.Fatalf("run with -config: %v", err)
	}
}

func TestConsolidatedPredictor(t *testing.T) {
	err := run([]string{"-workload", "252.eon", "-base", "30000", "-predictors", "combined"})
	if err != nil {
		t.Fatalf("run with combined: %v", err)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                                      // neither -workload nor -trace
		{"-workload", "nope"},                   // unknown workload
		{"-workload", "252.eon", "-trace", "x"}, // both sources
		{"-trace", "/nonexistent/file.trc"},     // unreadable trace
		{"-workload", "252.eon", "-base", "20000", "-predictors", "bogus"},                               // unknown predictor
		{"-workload", "252.eon", "-base", "20000", "-config", `blbp={"NoSuchField":1}`},                  // unknown config field
		{"-workload", "252.eon", "-base", "20000", "-config", `blbp={"HistBits":-4}`},                    // invalid config
		{"-workload", "252.eon", "-base", "20000", "-predictors", "btb", "-config", `blbp={}`},           // override for absent predictor
		{"-workload", "252.eon", "-base", "20000", "-config", `blbp={}`, "-config", `blbp={}`},           // duplicate override
		{"-workload", "252.eon", "-base", "20000", "-predictors", "blbp", "-config", "no-equals-sign"},   // malformed override
		{"-workload", "252.eon", "-base", "20000", "-predictors", "blbp", "-config", `blbp={"x":}` + ``}, // malformed JSON
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// TestSnapshotRestoreCSV is the CLI face of the snapshot differential: a
// run snapshotted mid-trace and resumed by a separate invocation must emit
// a CSV byte-identical to the uninterrupted run's.
func TestSnapshotRestoreCSV(t *testing.T) {
	dir := t.TempDir()
	fullCSV := filepath.Join(dir, "full.csv")
	resumedCSV := filepath.Join(dir, "resumed.csv")
	snap := filepath.Join(dir, "run.snp")
	base := []string{"-workload", "252.eon", "-base", "30000", "-predictors", "blbp,ittage,combined"}

	if err := run(append(base, "-csv", fullCSV)); err != nil {
		t.Fatalf("full run: %v", err)
	}
	if err := run(append(base, "-snapshot", snap, "-snapat", "700")); err != nil {
		t.Fatalf("snapshot run: %v", err)
	}
	if err := run(append(base, "-restore", snap, "-csv", resumedCSV)); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	full, err := os.ReadFile(fullCSV)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(resumedCSV)
	if err != nil {
		t.Fatal(err)
	}
	if string(full) != string(resumed) {
		t.Errorf("resumed CSV differs from uninterrupted run:\nfull:\n%s\nresumed:\n%s", full, resumed)
	}
	// The published snapshot must carry the world-readable mode of the
	// atomic writer, not CreateTemp's private 0600.
	fi, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Errorf("snapshot file mode %o, want 644", perm)
	}
}

func TestSnapshotFlagErrors(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "run.snp")
	if err := run([]string{"-workload", "252.eon", "-base", "20000", "-predictors", "blbp",
		"-snapshot", snap, "-snapat", "100"}); err != nil {
		t.Fatalf("snapshot run: %v", err)
	}
	cases := [][]string{
		// -snapshot and -restore together
		{"-workload", "252.eon", "-base", "20000", "-predictors", "blbp", "-snapshot", snap, "-restore", snap},
		// -snapat without -snapshot
		{"-workload", "252.eon", "-base", "20000", "-predictors", "blbp", "-snapat", "5"},
		// snapshotting a predictor without warm-state support
		{"-workload", "252.eon", "-base", "20000", "-predictors", "btb", "-snapshot", snap, "-snapat", "5"},
		// restoring with a different predictor list
		{"-workload", "252.eon", "-base", "20000", "-predictors", "ittage", "-restore", snap},
		// restoring with different config overrides
		{"-workload", "252.eon", "-base", "20000", "-predictors", "blbp", "-config", `blbp={"ThetaInit":9}`, "-restore", snap},
		// restoring against a different trace
		{"-workload", "252.eon", "-base", "21000", "-predictors", "blbp", "-restore", snap},
		// restoring a file that is not a snapshot
		{"-workload", "252.eon", "-base", "20000", "-predictors", "blbp", "-restore", "/nonexistent/run.snp"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// TestConsolidatedSnapshotWritesOneStructure: a combined pass's two faces,
// the predictor and its indirect view, share one structure, so -snapshot
// must encode it once. Its file is then smaller than a blbp pass's, which
// holds a hashed perceptron beside the BLBP; encoding both faces made it
// about 1.5 times the blbp file's size.
func TestConsolidatedSnapshotWritesOneStructure(t *testing.T) {
	dir := t.TempDir()
	size := func(pred string) int64 {
		t.Helper()
		snap := filepath.Join(dir, pred+".snp")
		base := []string{"-workload", "400.perlbench-1", "-base", "40000", "-predictors", pred}
		if err := run(append(base, "-snapshot", snap, "-snapat", "900")); err != nil {
			t.Fatalf("%s snapshot: %v", pred, err)
		}
		fi, err := os.Stat(snap)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	combined, dedicated := size("combined"), size("blbp")
	t.Logf("combined snapshot %d B, blbp snapshot %d B", combined, dedicated)
	if combined >= dedicated {
		t.Errorf("combined snapshot is %d B, want under the blbp snapshot's %d B", combined, dedicated)
	}
}
