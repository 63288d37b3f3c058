package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTablesRun(t *testing.T) {
	if err := run([]string{"-base", "5000", "table1", "table2"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestCharacterizationFigures(t *testing.T) {
	if err := run([]string{"-base", "5000", "fig1", "fig6", "fig7"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestOverallSharedAcrossFigures(t *testing.T) {
	// overall + fig8 + fig9 must reuse one suite run; this mainly checks
	// the wiring end to end at tiny scale.
	if err := run([]string{"-base", "4000", "overall", "fig8", "fig9"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-base", "4000", "-csv", dir, "table2"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table2.csv"))
	if err != nil {
		t.Fatalf("csv missing: %v", err)
	}
	if len(data) == 0 {
		t.Error("empty csv")
	}
}

// TestWarmStartCSVIdentical runs the same experiment twice against one
// kept spill directory: the second (warm) run decodes every trace from
// disk and must emit byte-identical CSV output.
func TestWarmStartCSVIdentical(t *testing.T) {
	spill := t.TempDir()
	coldDir, warmDir := t.TempDir(), t.TempDir()
	args := []string{"-base", "4000", "-cachespill", spill, "-cachekeep", "-csv"}
	if err := run(append(args, coldDir, "overall")); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if entries, err := os.ReadDir(spill); err != nil || len(entries) == 0 {
		t.Fatalf("no spill files kept after cold run (err=%v)", err)
	}
	if err := run(append(args, warmDir, "overall")); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	cold, err := os.ReadFile(filepath.Join(coldDir, "overall.csv"))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(filepath.Join(warmDir, "overall.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("overall.csv differs cold vs warm:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
}

// TestMissingSpillDirRefused: without -cachekeep a run only reads its
// -cachespill directory, so one that does not exist is a mistyped
// warm-start path. The run must fail naming it and create nothing.
func TestMissingSpillDirRefused(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nodir", "typo")
	err := run([]string{"-base", "4000", "-cachespill", missing, "-cachestats", "table1"})
	if err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("run with a missing -cachespill dir: err = %v, want an error naming %s", err, missing)
	}
	if _, err := os.Stat(filepath.Dir(missing)); !os.IsNotExist(err) {
		t.Errorf("the run created %s (stat: %v)", filepath.Dir(missing), err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"bogus-experiment"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns what
// it wrote.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = old
	w.Close()
	data, rerr := io.ReadAll(r)
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	return data
}

// TestDumpPlanMatchesBuiltin is the CLI half of the round-trip bar: the
// JSON printed by -dumpplan, re-run via -plan, must produce CSV bytes
// identical to the compiled-in path.
func TestDumpPlanMatchesBuiltin(t *testing.T) {
	dumped := captureStdout(t, func() error { return run([]string{"-dumpplan", "overall"}) })
	if len(dumped) == 0 {
		t.Fatal("-dumpplan wrote nothing")
	}
	planFile := filepath.Join(t.TempDir(), "overall.json")
	if err := os.WriteFile(planFile, dumped, 0o644); err != nil {
		t.Fatal(err)
	}
	builtinDir, planDir := t.TempDir(), t.TempDir()
	if err := run([]string{"-base", "4000", "-csv", builtinDir, "overall"}); err != nil {
		t.Fatalf("builtin run: %v", err)
	}
	if err := run([]string{"-base", "4000", "-csv", planDir, "-plan", planFile}); err != nil {
		t.Fatalf("-plan run: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(builtinDir, "overall.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(planDir, "overall.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("-plan CSV differs from builtin:\n--- builtin ---\n%s\n--- plan ---\n%s", want, got)
	}
}

// TestUserPlan runs a hand-written plan: a suite subset, a config override,
// and the generic mpki output — the no-recompile workflow.
func TestUserPlan(t *testing.T) {
	plan := `{
  "name": "my-sweep",
  "suite": {"workloads": ["252.eon", "400.perlbench-1"]},
  "passes": [
    {"predictors": [
      {"type": "blbp"},
      {"type": "blbp", "name": "no-target-bits", "config": {"GlobalTargetBits": 0}},
      {"type": "ittage"}
    ]}
  ],
  "outputs": [{"table": "mpki", "file": "my-sweep"}]
}`
	planFile := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(planFile, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := run([]string{"-base", "4000", "-csv", dir, "-plan", planFile}); err != nil {
		t.Fatalf("user plan: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "my-sweep.csv"))
	if err != nil {
		t.Fatalf("csv missing: %v", err)
	}
	for _, want := range []string{"252.eon", "400.perlbench-1", "no-target-bits", "MEAN"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("csv lacks %q:\n%s", want, data)
		}
	}
}

func TestPlanFlagErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "x", "bogus": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-dumpplan", "bogus"},              // unknown builtin
		{"-plan", "/nonexistent/plan.json"}, // unreadable file
		{"-plan", bad},                      // invalid plan
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestChartFlag(t *testing.T) {
	if err := run([]string{"-base", "3000", "-chart", "fig11"}); err != nil {
		t.Fatalf("run with -chart: %v", err)
	}
}
