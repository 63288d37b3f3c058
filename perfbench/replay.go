package main

import (
	"fmt"
	"reflect"

	"blbp/internal/cond"
	"blbp/internal/experiments"
	"blbp/internal/predictor"
	"blbp/internal/runspec"
	"blbp/internal/sim"
	"blbp/internal/trace"
	"blbp/internal/tracecache"
	"blbp/internal/workload"
)

// tpred is one predictor of a traced pass, resolved the way runspec
// resolves it: registry entry plus merged configuration.
type tpred struct {
	entry   predictor.Entry
	cfg     any
	rename  string
	base    stage // first of the kind's four stages; untracked when !tracked
	tracked bool
}

// tpass is one plan pass lowered for the traced replay.
type tpass struct {
	label string
	bound bool // owns its conditional state: the full engine runs it
	preds []tpred
}

// tracedPasses lowers the passes every plan of a workload shares. The
// traced replay supports what the benchmark's plans use: the default
// hashed-perceptron substrate with standalone or cond-bound predictors.
func tracedPasses(plans []*runspec.Plan) ([]tpass, error) {
	for _, p := range plans[1:] {
		if !reflect.DeepEqual(p.Passes, plans[0].Passes) {
			return nil, fmt.Errorf("plans %s and %s differ in passes", plans[0].Name, p.Name)
		}
	}
	var out []tpass
	for pi, ps := range plans[0].Passes {
		if ps.Cond != "" || len(ps.CondConfig) > 0 {
			return nil, fmt.Errorf("pass %d: the traced replay supports only the default conditional substrate", pi)
		}
		tp := tpass{label: fmt.Sprintf("pass%d", pi)}
		for _, spec := range ps.Predictors {
			e, ok := predictor.Lookup(spec.Type)
			if !ok {
				return nil, fmt.Errorf("pass %d: unknown predictor %q", pi, spec.Type)
			}
			if e.NewProvider != nil {
				return nil, fmt.Errorf("pass %d: the traced replay does not support consolidated predictors", pi)
			}
			cfg, err := e.Config(spec.Config)
			if err != nil {
				return nil, err
			}
			base, tracked := kindStage[spec.Type]
			tp.bound = tp.bound || e.NewBound != nil
			tp.preds = append(tp.preds, tpred{entry: e, cfg: cfg, rename: spec.Name, base: base, tracked: tracked})
		}
		out = append(out, tp)
	}
	return out, nil
}

func newHP() *cond.HashedPerceptron { return cond.NewHashedPerceptron(cond.DefaultHPConfig()) }

// build constructs p exactly as runspec does: the registry constructor,
// renamed when the plan names the instance.
func (p tpred) build(cp *cond.HashedPerceptron) predictor.Indirect {
	var ip predictor.Indirect
	var err error
	if p.entry.NewBound != nil {
		ip, err = p.entry.NewBound(p.cfg, cp)
	} else {
		ip, err = p.entry.New(p.cfg)
	}
	if err != nil {
		panic(fmt.Sprintf("perfbench: building %s: %v", p.entry.Name, err))
	}
	if p.rename != "" {
		ip = experiments.Rename(ip, p.rename)
	}
	return ip
}

// replayOut is what a traced replay produced.
type replayOut struct {
	results     map[string]map[string]sim.Result // trace -> predictor name -> result
	predictions map[string]int64                 // per predictor kind
	mispredicts map[string]int64
	condMis     int64
	records     int64
	segments    int64
	built       []*trace.Columns // traces the generators built (what a flush writes)
}

// replay runs every (trace × pass) task serially in the order the
// experiments Runner schedules them, calling each layer's public functions
// directly under the ledger's timers. With prime, the first shared pass of
// each trace is preceded by a Tape.Run over a no-op predictor that fills
// the conditional/RAS memo, so the memo is its own stage instead of hiding
// in the first replay.
func replay(l *ledger, c *tracecache.Cache, specs []workload.Spec, passes []tpass, prime bool) (*replayOut, error) {
	out := &replayOut{
		results:     make(map[string]map[string]sim.Result, len(specs)),
		predictions: map[string]int64{}, mispredicts: map[string]int64{},
	}
	opts := sim.Options{}
	for _, spec := range specs {
		res := make(map[string]sim.Result)
		primed := !prime
		var cols *trace.Columns
		for _, pass := range passes {
			task := l.open("task " + spec.Name + " " + pass.label)
			e, built := l.get(c, spec)
			cols = e.Columns()
			if built {
				out.built = append(out.built, cols)
			}
			var tape *sim.Tape
			var err error
			l.timed(stTapeMemo, "sim.tape", func() { tape, err = e.Tape() })
			if err != nil {
				return nil, err
			}
			var rs []sim.Result
			if pass.bound {
				l.timed(stFullEngine, "sim.full_engine", func() {
					cp := newHP()
					inds := make([]predictor.Indirect, len(pass.preds))
					for i, p := range pass.preds {
						inds[i] = p.build(cp)
					}
					rs, err = tape.Run("", cp, inds, opts)
				})
			} else {
				if !primed {
					primed = true
					id := l.open("sim.tape_memo")
					var pr []sim.Result
					pr, err = tape.Run(experiments.CondKeyHP, l.wrapCond(newHP()), []predictor.Indirect{nopIndirect{}}, opts)
					l.self[stTapeMemo] += float64(l.close(id))
					if err != nil {
						return nil, err
					}
					out.condMis += pr[0].CondMispredicts
				}
				var cp *cond.HashedPerceptron
				l.timedAlloc(stCondConstruct, "cond.construct", func() { cp = newHP() })
				inds := make([]predictor.Indirect, len(pass.preds))
				for i, p := range pass.preds {
					if !p.tracked {
						return nil, fmt.Errorf("predictor %s has no ledger stages", p.entry.Name)
					}
					var ip predictor.Indirect
					l.timedAlloc(p.base+methConstruct, p.entry.Name+".construct", func() { ip = p.build(cp) })
					inds[i] = l.wrapIndirect(ip, p.base)
				}
				id := l.open("sim.replay")
				rs, err = tape.Run(experiments.CondKeyHP, cp, inds, opts)
				l.self[stReplay] += float64(l.close(id))
				for i, r := range rs {
					out.predictions[pass.preds[i].entry.Name] += r.IndirectBranches
					out.mispredicts[pass.preds[i].entry.Name] += r.IndirectMispredicts
				}
			}
			if err != nil {
				return nil, err
			}
			d := l.close(task)
			l.tasks++
			l.taskMaxNs = max(l.taskMaxNs, d)
			for _, r := range rs {
				res[r.Predictor] = r
			}
		}
		out.records += int64(cols.Len())
		out.segments += int64(len(cols.Segments()))
		out.results[spec.Name] = res
	}
	return out, nil
}

// get is Cache.Get under the ledger: the cache's own counters say whether
// the entry came from the generator, a spill file, or memory.
func (l *ledger) get(c *tracecache.Cache, spec workload.Spec) (*tracecache.Entry, bool) {
	before := c.Stats()
	a0 := heapAllocs()
	id := l.open("tracecache.get")
	e := c.Get(spec)
	d := float64(l.close(id))
	after := c.Stats()
	st := stGet
	switch {
	case after.Builds > before.Builds:
		st = stBuild
		l.allocs[stBuild] += float64(heapAllocs() - a0)
	case after.SpillLoads > before.SpillLoads:
		st = stDecode
	}
	l.self[st] += d
	l.spans[id].Name = stageNames[st] + " " + spec.Name
	return e, st == stBuild
}
