package runspec

import (
	"fmt"
	"sync"

	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/experiments"
	"blbp/internal/predictor"
)

// compiledPlan is a plan's passes lowered to the experiments layer, plus
// the bookkeeping outputs need to interpret the results.
type compiledPlan struct {
	passes []experiments.Pass
	// names and budgets flatten the plan's predictors in (pass, spec)
	// order: names[i] is the key member i's results appear under, and
	// budgets[i] its storage, read off its pass's dry-run set.
	names   []string
	budgets []budget
	// obs holds what the probe outputs read: per workload, one
	// core.Observation per predictor in (pass, spec) order, into which a
	// task's BLBP members count while it runs. nil when the plan has no
	// probe output.
	obs [][]core.Observation
}

// compilePasses lowers the plan's passes. Every constructor is dry-run
// once here so config and wiring errors surface before any simulation;
// each pass keeps the dry run's set as its first free one, and any later
// construction only repeats one known to succeed.
func compilePasses(p *Plan, workloads int, withProbes bool) (*compiledPlan, error) {
	cp := &compiledPlan{}
	if withProbes {
		// Allocated before any task runs; each task writes only its own
		// (pass, workload, member) cells.
		members := 0
		for _, ps := range p.Passes {
			members += len(ps.Predictors)
		}
		cp.obs = make([][]core.Observation, workloads)
		for w := range cp.obs {
			cp.obs[w] = make([]core.Observation, members)
		}
	}
	for pi := range p.Passes {
		if err := cp.compilePass(p.Passes[pi], pi); err != nil {
			return nil, fmt.Errorf("runspec: pass %d: %v", pi, err)
		}
	}
	return cp, nil
}

// budget is one member's modeled hardware storage, with the kind of
// predictor (predictor.Entry.Kind) the member is.
type budget struct {
	kind string
	// bits is the member's StorageBits; condBits is that of its pass's
	// conditional predictor (a consolidated member's own).
	bits, condBits int
}

// compilePass lowers pass pi and appends it, its members' names and their
// budgets to cp.
func (cp *compiledPlan) compilePass(ps Pass, pi int) error {
	// The pass's members' observation cells start at index first of each
	// obs row.
	obs, first := cp.obs, len(cp.names)

	// Materialize every config once; newSet below closes over the
	// resolved values.
	type resolved struct {
		entry predictor.Entry
		cfg   any
	}
	specs := make([]resolved, len(ps.Predictors))
	names := make([]string, len(ps.Predictors))
	provider, bound := false, false
	for si, spec := range ps.Predictors {
		e, ok := predictor.Lookup(spec.Type)
		if !ok {
			return fmt.Errorf("unknown predictor type %q", spec.Type)
		}
		cfg, err := e.Config(spec.Config)
		if err != nil {
			return err
		}
		specs[si] = resolved{entry: e, cfg: cfg}
		names[si] = displayName(spec)
		provider = provider || e.NewProvider != nil
		bound = bound || e.NewBound != nil
	}
	ce, ok := lookupCond(condNameOrDefault(ps.Cond))
	if !ok {
		return fmt.Errorf("unknown conditional substrate %q", ps.Cond)
	}
	condCfg, err := ce.config(ps.CondConfig)
	if err != nil {
		return err
	}

	// newSet is the pass's one construction path: the conditional
	// predictor (a consolidated predictor is its own), then every indirect
	// predictor (bound ones over it). The set's release Resets the set,
	// which detaches any observation, and hands it back to free.
	free := &setList{}
	newSet := func() (*predictorSet, error) {
		s := &predictorSet{
			raw:  make([]predictor.Indirect, len(specs)),
			inds: make([]predictor.Indirect, len(specs)),
		}
		var err error
		if !provider {
			if s.cond, err = ce.build(condCfg); err != nil {
				return nil, err
			}
		}
		for si, r := range specs {
			var ind predictor.Indirect
			switch {
			case r.entry.NewProvider != nil:
				s.cond, ind, err = r.entry.NewProvider(r.cfg)
			case r.entry.NewBound != nil:
				ind, err = r.entry.NewBound(r.cfg, s.cond)
			default:
				ind, err = r.entry.New(r.cfg)
			}
			if err != nil {
				return nil, err
			}
			s.raw[si] = ind
			if name := ps.Predictors[si].Name; name != "" {
				ind = experiments.Rename(ind, name)
			}
			s.inds[si] = ind
		}
		s.release = func() {
			s.reset()
			free.give(s)
		}
		return s, nil
	}

	// Dry-run the whole pass once: the conditional predictor, every
	// indirect predictor, their Resets, and the natural-name fallback
	// check. The budgets are read off the same set.
	trial, err := newSet()
	if err != nil {
		return err
	}
	if _, ok := trial.cond.(resetter); !ok {
		return fmt.Errorf("conditional predictor %q has no Reset", trial.cond.Name())
	}
	for si, r := range specs {
		if _, ok := trial.raw[si].(resetter); !ok {
			return fmt.Errorf("predictor %q has no Reset", r.entry.Name)
		}
		// A config override can change what the instance calls itself
		// (btb's hysteresis flag); without an explicit name the results
		// would then be keyed differently than the plan expects.
		if ps.Predictors[si].Name == "" && trial.raw[si].Name() != names[si] {
			return fmt.Errorf("predictor %q reports results as %q with this config; set \"name\" explicitly",
				r.entry.Name, trial.raw[si].Name())
		}
		cp.budgets = append(cp.budgets, budget{
			kind:     r.entry.Kind(),
			bits:     trial.raw[si].StorageBits(),
			condBits: trial.cond.StorageBits(),
		})
	}
	cp.names = append(cp.names, names...)

	// The dry run's set is the first free one. Each task takes a free set
	// or builds one.
	free.give(trial)
	newFn := func(w int) (cond.Predictor, []predictor.Indirect, func()) {
		s := free.take()
		if s == nil {
			var err error
			if s, err = newSet(); err != nil {
				panic(fmt.Sprintf("runspec: pass %d construction failed after successful dry run: %v", pi, err))
			}
		}
		if obs != nil {
			s.observe(obs[w][first:])
		}
		return s.cond, s.inds, s.release
	}

	pass := experiments.Pass{New: newFn}
	// A pass whose predictor is, or shares (and pollutes), the conditional
	// predictor owns its conditional state: never tape-shared.
	if !provider && !bound {
		pass.CondKey = ce.key(condCfg, len(ps.CondConfig) > 0)
	}
	cp.passes = append(cp.passes, pass)
	return nil
}

// predictorSet is one constructed instance of a pass: its conditional
// predictor, the raw indirect instances, and the views the engine runs
// (renamed where the plan names the predictor). release is built once per
// set, so handing a set to a task allocates nothing.
type predictorSet struct {
	cond    cond.Predictor
	raw     []predictor.Indirect
	inds    []predictor.Indirect
	release func()
}

// observe attaches cells[si] to member si when it is a BLBP, so the task
// holding the set counts straight into its cells; reset detaches them.
func (s *predictorSet) observe(cells []core.Observation) {
	for si, ind := range s.raw {
		if b, ok := ind.(*core.BLBP); ok {
			b.Observe(&cells[si])
		}
	}
}

// resetter is a predictor that can restore its freshly constructed state
// in place. Reset must leave the instance indistinguishable from New's:
// the same results on any later trace and, for a predictor.Snapshotter,
// the same EncodeState bytes. Every member of a pass must implement it.
type resetter interface{ Reset() }

// reset restores every member to its freshly constructed state. The
// conditional predictor is reset here as the set's cond: a bound predictor
// (VPC) resets only its own structures, and a consolidated predictor's
// indirect view resets the same shared structure again.
func (s *predictorSet) reset() {
	s.cond.(resetter).Reset()
	for _, ind := range s.raw {
		ind.(resetter).Reset()
	}
}

// setList is a pass's free list of Reset predictor sets. A task takes one
// (or builds one when none is free) and gives it back when it finishes, so
// the list never holds more sets than tasks of the pass ever ran at once:
// at most one per worker.
type setList struct {
	mu   sync.Mutex
	sets []*predictorSet
}

func (l *setList) take() *predictorSet {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.sets)
	if n == 0 {
		return nil
	}
	s := l.sets[n-1]
	l.sets = l.sets[:n-1]
	return s
}

func (l *setList) give(s *predictorSet) {
	l.mu.Lock()
	l.sets = append(l.sets, s)
	l.mu.Unlock()
}
