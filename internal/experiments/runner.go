// Package experiments is the execution layer behind the paper's tables
// and figures (see DESIGN.md §4 for the experiment index), plus the
// drivers that need no simulation pass: the workload characterizations
// (Fig. 1/6/7), Table 1/2, and the renderers of the §5.1 headline run
// (Fig. 8/9). The passes themselves are declared as run plans in
// internal/runspec, which compiles each plan to Pass values and runs them
// on a Runner; that is the one way a run builds its passes.
//
// A Runner is the process-wide execution layer: one trace cache
// (internal/tracecache) so each workload's trace is built exactly once per
// process no matter how many plans touch it, and one worker pool that
// runs (workload × pass) tasks from a FIFO queue — the granularity
// CBP-style trace-driven infrastructures parallelize at — so multi-pass
// plans like the Fig. 10 ablation do not run their passes serially inside
// one goroutine.
package experiments

import (
	"fmt"
	"sync"

	"blbp/internal/cond"
	"blbp/internal/predictor"
	"blbp/internal/sim"
	"blbp/internal/trace"
	"blbp/internal/tracecache"
	"blbp/internal/workload"
)

// Pass is one engine pass, a conditional predictor and the indirect
// predictors that share it, with its scheduling contract.
type Pass struct {
	// CondKey identifies the conditional predictor configuration when its
	// simulation is shareable: every pass declaring the same key must
	// construct an identical conditional predictor, and the engine then
	// simulates the conditional/RAS side once per (trace, key) on the
	// workload's tape and replays it for every other pass (see sim.Tape).
	// An empty key marks a pass that owns conditional state (VPC, the
	// consolidated predictor) and is always fully simulated.
	CondKey string
	// New returns the pass's predictors for workload index w, fresh or
	// Reset, and a release func. The task calls release once Tape.Run has
	// returned, after which the pass Resets the set and hands it to a
	// later task. A compiled run-plan pass always returns a release. A nil
	// release means the set is never reused.
	New func(w int) (cp cond.Predictor, indirects []predictor.Indirect, release func())
}

// WorkloadResult holds all predictor results for one workload.
type WorkloadResult struct {
	Spec    workload.Spec
	Results map[string]sim.Result // keyed by (unique) predictor name
}

// MPKI returns the indirect MPKI for the named predictor (0 if absent).
func (w WorkloadResult) MPKI(name string) float64 {
	return w.Results[name].IndirectMPKI()
}

// Runner is the suite-wide execution layer shared by every driver of one
// process: the trace cache and the worker pool. Create one per
// process (or per experiment batch), run any number of drivers on it, and
// Close it when done.
type Runner struct {
	cache     *tracecache.Cache
	pool      *pool
	ownsCache bool
}

// NewRunner returns a Runner with workers worker goroutines (0 = GOMAXPROCS)
// and an unbounded private trace cache.
func NewRunner(workers int) *Runner {
	return NewRunnerConfig(workers, tracecache.Config{})
}

// NewRunnerConfig returns a Runner with workers worker goroutines over a
// private trace cache built from cfg, so callers can thread the cache's
// persistence options (spill directory, KeepSpill) through
// the execution layer without managing the cache themselves. The cache is
// closed with the Runner; with cfg.KeepSpill that flushes the working set
// to cfg.SpillDir for a later process to warm-start from.
func NewRunnerConfig(workers int, cfg tracecache.Config) *Runner {
	r := NewRunnerCache(workers, tracecache.New(cfg))
	r.ownsCache = true
	return r
}

// NewRunnerCache returns a Runner over an externally owned trace cache,
// letting several runners (or a benchmark harness) share built traces.
func NewRunnerCache(workers int, cache *tracecache.Cache) *Runner {
	return &Runner{cache: cache, pool: newPool(workers)}
}

// Close stops the worker pool (and drops a private cache's entries).
func (r *Runner) Close() {
	r.pool.close()
	if r.ownsCache {
		r.cache.Close()
	}
}

// Cache exposes the trace cache (for counter reporting).
func (r *Runner) Cache() *tracecache.Cache { return r.cache }

// RunSuites simulates every pass over every spec of every suite. The run
// is decomposed into (suite × workload × pass) tasks, all submitted to the
// shared pool in a single wave, so multi-draw plans (seeds) keep every
// worker busy across draw boundaries. Each task fetches the workload's
// trace from the cache (building it at most once process-wide), obtains
// the shared tape, and replays its pass. Results are reassembled per suite
// in deterministic (suite, spec, pass) order, so the output is
// byte-for-byte independent of the worker count.
func (r *Runner) RunSuites(suites [][]workload.Spec, passes []Pass) ([][]WorkloadResult, error) {
	if len(suites) == 0 {
		return nil, fmt.Errorf("experiments: no suites")
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("experiments: no passes")
	}
	type cell struct {
		res []sim.Result
		err error
	}
	offsets := make([]int, len(suites))
	total := 0
	for s, specs := range suites {
		if len(specs) == 0 {
			return nil, fmt.Errorf("experiments: no workloads")
		}
		offsets[s] = total
		total += len(specs) * len(passes)
	}
	cells := make([]cell, total)
	var wg sync.WaitGroup
	wg.Add(total)
	for s := range suites {
		specs, base := suites[s], offsets[s]
		for i := range specs {
			for j := range passes {
				c := &cells[base+i*len(passes)+j]
				spec, pass := specs[i], passes[j]
				w := i
				r.pool.submit(func() {
					defer wg.Done()
					tape, err := r.cache.Get(spec).Tape()
					if err != nil {
						c.err = err
						return
					}
					cp, indirects, release := pass.New(w)
					c.res, c.err = tape.Run(pass.CondKey, cp, indirects, sim.Options{})
					if release != nil {
						release()
					}
				})
			}
		}
	}
	wg.Wait()

	out := make([][]WorkloadResult, len(suites))
	for s := range suites {
		specs, base := suites[s], offsets[s]
		rows := make([]WorkloadResult, len(specs))
		for i := range specs {
			wr := WorkloadResult{Spec: specs[i], Results: make(map[string]sim.Result)}
			for j := range passes {
				c := &cells[base+i*len(passes)+j]
				if c.err != nil {
					return nil, fmt.Errorf("experiments: workload %s: %w", specs[i].Name, c.err)
				}
				for _, res := range c.res {
					if _, dup := wr.Results[res.Predictor]; dup {
						return nil, fmt.Errorf("experiments: workload %s: duplicate predictor name %q", specs[i].Name, res.Predictor)
					}
					wr.Results[res.Predictor] = res
				}
			}
			rows[i] = wr
		}
		out[s] = rows
	}
	return out, nil
}

// AnalyzeSuite returns each spec's trace statistics in spec order. Both
// the traces and their statistics are memoized on the cache, so the
// characterization figures (Fig. 1/6/7) analyze each workload once between
// them.
func (r *Runner) AnalyzeSuite(specs []workload.Spec) []*trace.Stats {
	out := make([]*trace.Stats, len(specs))
	var wg sync.WaitGroup
	wg.Add(len(specs))
	for i := range specs {
		spec := specs[i]
		out2 := &out[i]
		r.pool.submit(func() {
			defer wg.Done()
			*out2 = r.cache.Get(spec).Stats()
		})
	}
	wg.Wait()
	return out
}

// named renames an indirect predictor so several instances of one type can
// run in a single pass (e.g. the Fig. 10 ablation's twelve BLBP variants).
type named struct {
	predictor.Indirect
	name string
}

// namedSpan is named over a predictor.SpanFeeder, keeping the span fast
// path of sim.Tape visible through the wrapper.
type namedSpan struct {
	named
	predictor.SpanFeeder
}

// Rename wraps p under a unique name. The wrapper implements
// predictor.SpanFeeder exactly when p does.
func Rename(p predictor.Indirect, name string) predictor.Indirect {
	n := named{Indirect: p, name: name}
	if sf, ok := p.(predictor.SpanFeeder); ok {
		return namedSpan{named: n, SpanFeeder: sf}
	}
	return n
}

func (n named) Name() string { return n.name }
