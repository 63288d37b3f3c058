package runspec

import (
	"bytes"
	"runtime"
	"testing"

	"blbp/internal/experiments"
)

// recycleWorkloads is a six-workload subset: enough tasks per pass that
// sets are handed back and taken again, at every worker count.
// holdoutWorkloads is its counterpart for the holdout plan.
var (
	recycleWorkloads = []string{
		"252.eon", "400.perlbench-1", "403.gcc-1", "453.povray-1", "458.sjeng-1", "602.gcc-1",
	}
	holdoutWorkloads = []string{
		"holdout-interp-1", "holdout-interp-2", "holdout-switch-1",
		"holdout-vdisp-1", "holdout-mixed-1", "holdout-mixed-2",
	}
)

// builtinOver returns the named built-in plan over the first n workloads
// of recycleWorkloads (holdoutWorkloads for the holdout suite) at a small
// instruction budget. The plan keeps its suite kind and its draws.
func builtinOver(t *testing.T, name string, n int) *Plan {
	t.Helper()
	p, ok := Builtin(name)
	if !ok {
		t.Fatalf("no built-in plan %q", name)
	}
	p.Suite.Base = 10_000
	p.Suite.Workloads = recycleWorkloads[:n]
	if p.Suite.Kind == "holdout" {
		p.Suite.Workloads = holdoutWorkloads[:n]
	}
	return p
}

// passPlans lists the built-in plans that simulate passes.
func passPlans(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, name := range BuiltinNames() {
		if p, _ := Builtin(name); len(p.Passes) > 0 {
			out = append(out, name)
		}
	}
	if len(out) != 14 {
		t.Fatalf("%d built-in plans with passes (%v), want 14", len(out), out)
	}
	return out
}

// TestRecycledSetsDeterministicAcrossWorkers: every built-in plan with
// passes must render byte-identical CSVs on 1 and 8 workers. Among them
// are fig10 (thirteen single-predictor passes), overall (a shared pass
// with btb, ittage and blbp, and VPC with its hashed perceptron), extras
// (targetcache and cascaded beside four others), cottage (TAGE), combined
// (the consolidated predictor) and the probe plans latency and hierarchy.
// At 8 workers several tasks of one pass run at once, so sets are built,
// handed back and taken again concurrently; ci.sh runs this under -race.
func TestRecycledSetsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates six workloads twice per plan")
	}
	names := passPlans(t)
	render := func(workers int) map[string][]byte {
		r := experiments.NewRunner(workers)
		defer r.Close()
		x := NewExec(r, 600_000)
		out := map[string][]byte{}
		for _, name := range names {
			outs, err := x.Run(builtinOver(t, name, len(recycleWorkloads)))
			if err != nil {
				t.Fatal(err)
			}
			out[name] = renderCSV(t, outs[0])
		}
		return out
	}
	serial, parallel := render(1), render(8)
	for _, name := range names {
		if s, p := serial[name], parallel[name]; !bytes.Equal(s, p) {
			t.Errorf("%s: 1 and 8 workers differ:\n%s\nvs\n%s", name, s, p)
		}
	}
}

// TestRecycledTaskAllocation: on a warmed cache with one worker, each
// extra (draw × workload × pass) task of every built-in plan with passes
// must allocate under 64 KB. A task that constructs its predictors
// allocates about 490 KB for a BLBP and its hashed perceptron, and 3.6 MB
// for extras' six, so the bound fails unless every pass recycles its sets.
func TestRecycledTaskAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates six workloads three times per plan")
	}
	r := experiments.NewRunner(1)
	defer r.Close()
	all := len(recycleWorkloads)
	for _, name := range passPlans(t) {
		// Warm the cache: every trace and its conditional/RAS tape memo.
		if _, err := NewExec(r, 600_000).Run(builtinOver(t, name, all)); err != nil {
			t.Fatal(err)
		}
		alloc := func(n int) int64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := NewExec(r, 600_000).Run(builtinOver(t, name, n)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return int64(after.TotalAlloc - before.TotalAlloc)
		}
		small, large := alloc(2), alloc(all)
		p := builtinOver(t, name, 1)
		tasks := int64((all - 2) * len(p.Passes) * p.Suite.draws())
		perTask := (large - small) / tasks
		t.Logf("%s on 2 workloads: %d KB, on %d: %d KB; %d B per extra task", name, small>>10, all, large>>10, perTask)
		if perTask >= 64<<10 {
			t.Errorf("%s: each extra task allocates %d KB, want under 64 KB", name, perTask>>10)
		}
	}
}

// TestProbePlansRetainNoInstances: the latency and hierarchy outputs read
// per-workload values that each task copies out before its predictors are
// Reset, so an Exec that ran one of them keeps numbers, not predictor
// instances. Kept instances would cost about 425 KB per (pass, workload)
// cell; the bound is 16 KB.
func TestProbePlansRetainNoInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates six workloads twice per plan")
	}
	r := experiments.NewRunner(1)
	defer r.Close()
	all := len(recycleWorkloads)
	for _, name := range []string{"latency", "hierarchy"} {
		plan := builtinOver(t, name, all)
		// Warm the cache so the measured run adds only what its Exec keeps.
		if _, err := NewExec(r, 600_000).Run(plan); err != nil {
			t.Fatal(err)
		}
		// Two collections per reading: the first moves sync.Pool contents
		// to their victim caches, the second frees them.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		x := NewExec(r, 600_000)
		if _, err := x.Run(plan); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(x)
		cells := int64(len(plan.Passes) * all)
		perCell := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / cells
		t.Logf("%s: the Exec keeps %d B per (pass, workload) cell", name, perCell)
		if perCell >= 16<<10 {
			t.Errorf("%s: the Exec keeps %d KB per (pass, workload) cell, want under 16 KB", name, perCell>>10)
		}
	}
}
