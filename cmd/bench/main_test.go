package main

import (
	"strings"
	"testing"
)

// TestRunProducesCompleteReport runs the measurement pipeline at a tiny
// instruction base and checks every entry is populated and positive.
func TestRunProducesCompleteReport(t *testing.T) {
	bo := batchOpts{sizes: []int{1, 8}, shards: []int{1, 2}, events: 128}
	rep, checks, err := run(2_000, 1, 2, false, "", bo)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "blbp-bench-6" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Parallel != 2 {
		t.Errorf("parallel = %d, want 2", rep.Parallel)
	}
	if rep.GOMAXPROCS <= 0 {
		t.Errorf("gomaxprocs = %d", rep.GOMAXPROCS)
	}
	if rep.ParallelMeaningful != (rep.GOMAXPROCS > 1) {
		t.Errorf("parallel_meaningful = %v with gomaxprocs %d", rep.ParallelMeaningful, rep.GOMAXPROCS)
	}
	want := map[string]bool{
		"blbp_micro": false, "ittage_micro": false,
		"engine_end_to_end": false, "suite_pass": false,
		"suite_pass_parallel": false,
		"suite_pass_cold":     false,
		"suite_pass_warm":     false,
		"sim_run_columnar":    false,
		"spill_decode":        false,
		"single_stream":       false,
		"batch_b1":            false,
		"batch_b8":            false,
		"batch_shards_1":      false,
		"batch_shards_2":      false,
	}
	for _, e := range rep.Results {
		if _, ok := want[e.Name]; !ok {
			t.Errorf("unexpected entry %q", e.Name)
			continue
		}
		want[e.Name] = true
		if e.Events <= 0 || e.Seconds <= 0 || e.PerSecond <= 0 {
			t.Errorf("%s: non-positive measurement %+v", e.Name, e)
		}
		switch e.Unit {
		case "branches", "instructions", "records", "predictions", "streams":
		default:
			t.Errorf("%s: unknown unit %q", e.Name, e.Unit)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("missing entry %q", name)
		}
	}
	// One verification line per batch width, each attesting identical
	// batched and serial prediction streams.
	if len(checks) != len(bo.sizes) {
		t.Errorf("got %d batch check lines, want %d", len(checks), len(bo.sizes))
	}
	for _, c := range checks {
		if !strings.Contains(c, "outputs identical") {
			t.Errorf("batch check line %q does not attest identity", c)
		}
	}
	// Both suite measurements share one cache: every trace is built exactly
	// once, and the second measurement hits for every workload.
	tc := rep.TraceCache
	if tc.Builds <= 0 {
		t.Errorf("trace cache builds = %d, want > 0", tc.Builds)
	}
	if tc.Misses != tc.Builds {
		t.Errorf("misses (%d) != builds (%d): some build was duplicated or spilled unexpectedly", tc.Misses, tc.Builds)
	}
	if tc.Hits < tc.Builds {
		t.Errorf("hits = %d, want >= %d (second suite measurement must hit)", tc.Hits, tc.Builds)
	}
	// The warm measurement must have served every workload from the spill
	// tier the shared cache flushed: no generator builds, no spill errors.
	tw := rep.TraceCacheWarm
	if tw.Builds != 0 {
		t.Errorf("warm builds = %d, want 0", tw.Builds)
	}
	if tw.PreloadHits != tc.Builds {
		t.Errorf("warm preload hits = %d, want %d (one per workload)", tw.PreloadHits, tc.Builds)
	}
	if tw.SpillErrors != 0 {
		t.Errorf("warm spill errors = %d", tw.SpillErrors)
	}
}

// TestRunBatchOnly checks the -batch quick mode emits exactly the batch
// section.
func TestRunBatchOnly(t *testing.T) {
	bo := batchOpts{sizes: []int{1}, shards: []int{1}, events: 64}
	rep, checks, err := run(2_000, 1, 0, true, "", bo)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(rep.Results))
	for _, e := range rep.Results {
		names = append(names, e.Name)
	}
	got := strings.Join(names, " ")
	if got != "single_stream batch_b1 batch_shards_1" {
		t.Errorf("batch-only entries = %q", got)
	}
	if len(checks) != 1 || !strings.Contains(checks[0], "outputs identical") {
		t.Errorf("batch-only checks = %q", checks)
	}
}
