package runspec

import (
	"bytes"
	"runtime"
	"testing"

	"blbp/internal/experiments"
	"blbp/internal/predictor"
)

// recycleWorkloads is a six-workload subset: enough tasks per pass that
// sets are handed back and taken again, at every worker count.
var recycleWorkloads = []string{
	"252.eon", "400.perlbench-1", "403.gcc-1", "453.povray-1", "458.sjeng-1", "602.gcc-1",
}

// builtinOver returns the named built-in plan over the first n workloads
// of recycleWorkloads at a small instruction budget.
func builtinOver(t *testing.T, name string, n int) *Plan {
	t.Helper()
	p, ok := Builtin(name)
	if !ok {
		t.Fatalf("no built-in plan %q", name)
	}
	p.Suite = Suite{Base: 10_000, Workloads: recycleWorkloads[:n]}
	return p
}

// TestRecycledSetsDeterministicAcrossWorkers: fig10 (thirteen recycled
// single-predictor passes) and overall (a recycled shared pass with btb,
// ittage and blbp, and VPC recycled with its hashed perceptron) must
// render byte-identical CSVs on 1 and 8 workers. At 8 workers several
// tasks of one pass run at once, so sets are built, handed back and
// taken again concurrently; ci.sh runs this under -race.
func TestRecycledSetsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates six workloads twice")
	}
	render := func(workers int) map[string][]byte {
		r := experiments.NewRunner(workers)
		defer r.Close()
		x := NewExec(r, 600_000)
		out := map[string][]byte{}
		for _, name := range []string{"fig10", "overall"} {
			outs, err := x.Run(builtinOver(t, name, len(recycleWorkloads)))
			if err != nil {
				t.Fatal(err)
			}
			out[name] = renderCSV(t, outs[0])
		}
		return out
	}
	serial, parallel := render(1), render(8)
	for name, s := range serial {
		if p := parallel[name]; !bytes.Equal(s, p) {
			t.Errorf("%s: 1 and 8 workers differ:\n%s\nvs\n%s", name, s, p)
		}
	}
}

// TestRecycledTaskAllocation: on a warmed cache with one worker, each
// extra (workload × pass) task of fig10 must allocate under 64 KB. A task
// that constructs its predictors allocates about 490 KB (a BLBP and its
// hashed perceptron), so the bound fails unless sets are recycled.
func TestRecycledTaskAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates six workloads three times")
	}
	r := experiments.NewRunner(1)
	defer r.Close()
	all := len(recycleWorkloads)
	// Warm the cache: every trace and its conditional/RAS tape memo.
	if _, err := NewExec(r, 600_000).Run(builtinOver(t, "fig10", all)); err != nil {
		t.Fatal(err)
	}
	alloc := func(n int) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewExec(r, 600_000).Run(builtinOver(t, "fig10", n)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	small, large := alloc(2), alloc(all)
	tasks := int64((all - 2) * len(builtinOver(t, "fig10", 1).Passes))
	perTask := (large - small) / tasks
	t.Logf("fig10 on 2 workloads: %d KB, on %d: %d KB; %d B per extra task", small>>10, all, large>>10, perTask)
	if perTask >= 64<<10 {
		t.Errorf("each extra task allocates %d KB, want under 64 KB", perTask>>10)
	}
}

// TestProbePlansKeepFreshInstances: the latency and hierarchy outputs read
// per-workload predictor instances after the run, so their plans must not
// recycle: every (pass, workload) cell keeps its own distinct instances.
func TestProbePlansKeepFreshInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three workloads")
	}
	r := experiments.NewRunner(2)
	defer r.Close()
	for _, name := range []string{"latency", "hierarchy"} {
		x := NewExec(r, 600_000)
		if _, err := x.Run(builtinOver(t, name, 3)); err != nil {
			t.Fatal(err)
		}
		if len(x.memo) != 1 {
			t.Fatalf("%s: %d memoized runs, want 1", name, len(x.memo))
		}
		for _, run := range x.memo {
			seen := map[predictor.Indirect]bool{}
			for pi, cells := range run.cp.probes.insts {
				for w, insts := range cells {
					if len(insts) == 0 {
						t.Errorf("%s: pass %d kept no instances for workload %d", name, pi, w)
					}
					for _, inst := range insts {
						if seen[inst] {
							t.Errorf("%s: pass %d workload %d shares an instance with another cell", name, pi, w)
						}
						seen[inst] = true
					}
				}
			}
		}
	}
}
