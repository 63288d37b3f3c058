package runspec

import (
	"fmt"
	"sync"

	"blbp/internal/cond"
	"blbp/internal/experiments"
	"blbp/internal/predictor"
)

// compiledPlan is a plan's passes lowered to the experiments layer, plus
// the bookkeeping outputs need to interpret the results.
type compiledPlan struct {
	passes []experiments.Pass
	// specs/names flatten the plan's predictors in (pass, spec) order;
	// names[i] is the key specs[i]'s results appear under.
	specs []PredictorSpec
	names []string
	// probes retains the constructed predictor instances per (pass,
	// workload) when an output needs to read per-instance metrics after
	// the run; nil otherwise.
	probes *probeStore
}

// probeStore retains the raw (pre-rename) predictor instances of every
// (pass, workload) cell. Each simulation task writes only its own cell, so
// concurrent passes never share a slot.
type probeStore struct {
	insts [][][]predictor.Indirect // [pass][workload][spec-in-pass]
	names [][]string               // [pass][spec-in-pass] display names
}

// find returns workload w's instance of the named predictor (nil if the
// plan has no such predictor or the cell never ran).
func (s *probeStore) find(w int, name string) predictor.Indirect {
	for pi := range s.names {
		for si, n := range s.names[pi] {
			if n != name {
				continue
			}
			if w >= len(s.insts[pi]) || s.insts[pi][w] == nil {
				return nil
			}
			return s.insts[pi][w][si]
		}
	}
	return nil
}

// compilePasses lowers the plan's passes. Every constructor is dry-run
// once here so config and wiring errors surface before any simulation; the
// per-workload factories built below can then only repeat constructions
// that are known to succeed, and a recycling pass keeps the dry run's set
// as its first free one.
func compilePasses(p *Plan, workloads int, withProbes bool) (*compiledPlan, error) {
	cp := &compiledPlan{}
	if withProbes {
		cp.probes = &probeStore{
			insts: make([][][]predictor.Indirect, len(p.Passes)),
			names: make([][]string, len(p.Passes)),
		}
	}
	for pi := range p.Passes {
		pass, names, err := compileOnePass(p.Passes[pi], pi, cp.probes)
		if err != nil {
			return nil, err
		}
		if cp.probes != nil {
			// Preallocated here, before any task runs, so the concurrent
			// factories below only ever write their own (pass, workload)
			// slot.
			cp.probes.insts[pi] = make([][]predictor.Indirect, workloads)
			cp.probes.names[pi] = names
		}
		cp.passes = append(cp.passes, pass)
		cp.specs = append(cp.specs, p.Passes[pi].Predictors...)
		cp.names = append(cp.names, names...)
	}
	return cp, nil
}

func compileOnePass(ps Pass, pi int, probes *probeStore) (experiments.Pass, []string, error) {
	fail := func(err error) (experiments.Pass, []string, error) {
		return experiments.Pass{}, nil, fmt.Errorf("runspec: pass %d: %v", pi, err)
	}
	rebuildFailed := func(err error) {
		panic(fmt.Sprintf("runspec: pass %d construction failed after successful dry run: %v", pi, err))
	}

	// Materialize every config once; the factories below close over the
	// resolved values.
	type resolved struct {
		entry predictor.Entry
		cfg   any
	}
	specs := make([]resolved, len(ps.Predictors))
	names := make([]string, len(ps.Predictors))
	provider := -1
	bound := false
	for si, spec := range ps.Predictors {
		e, ok := predictor.Lookup(spec.Type)
		if !ok {
			return fail(fmt.Errorf("unknown predictor type %q", spec.Type))
		}
		cfg, err := e.Config(spec.Config)
		if err != nil {
			return fail(err)
		}
		specs[si] = resolved{entry: e, cfg: cfg}
		names[si] = displayName(spec)
		switch {
		case e.NewProvider != nil:
			provider = si
		case e.NewBound != nil:
			bound = true
		}
	}

	if provider >= 0 {
		// A consolidated predictor provides the pass's conditional
		// predictor itself; the pass owns conditional state.
		r := specs[provider]
		rename := ps.Predictors[provider].Name
		if _, _, err := r.entry.NewProvider(r.cfg); err != nil {
			return fail(err)
		}
		pass := experiments.Pass{New: func(w int) (cond.Predictor, []predictor.Indirect, func()) {
			cpred, ind, err := r.entry.NewProvider(r.cfg)
			if err != nil {
				rebuildFailed(err)
			}
			inds := []predictor.Indirect{ind}
			retain(probes, pi, w, inds)
			if rename != "" {
				inds[0] = experiments.Rename(ind, rename)
			}
			return cpred, inds, nil
		}}
		return pass, names, nil
	}

	ce, ok := lookupCond(condNameOrDefault(ps.Cond))
	if !ok {
		return fail(fmt.Errorf("unknown conditional substrate %q", ps.Cond))
	}
	condCfg, err := ce.config(ps.CondConfig)
	if err != nil {
		return fail(err)
	}

	// newSet is the pass's one construction path: the conditional
	// predictor, then every indirect predictor (bound ones over it).
	newSet := func() (*predictorSet, error) {
		cpred, err := ce.build(condCfg)
		if err != nil {
			return nil, err
		}
		s := &predictorSet{
			cond: cpred,
			raw:  make([]predictor.Indirect, len(specs)),
			inds: make([]predictor.Indirect, len(specs)),
		}
		for si, r := range specs {
			var ind predictor.Indirect
			if r.entry.NewBound != nil {
				ind, err = r.entry.NewBound(r.cfg, cpred)
			} else {
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
		return s, nil
	}
	build := func() *predictorSet {
		s, err := newSet()
		if err != nil {
			rebuildFailed(err)
		}
		return s
	}

	// Dry-run the whole pass once: the conditional predictor, every
	// indirect predictor, and the natural-name fallback check.
	trial, err := newSet()
	if err != nil {
		return fail(err)
	}
	for si, r := range specs {
		// A config override can change what the instance calls itself
		// (btb's hysteresis flag); without an explicit name the results
		// would then be keyed differently than the plan expects.
		if ps.Predictors[si].Name == "" && trial.raw[si].Name() != names[si] {
			return fail(fmt.Errorf("predictor %q reports results as %q with this config; set \"name\" explicitly",
				r.entry.Name, trial.raw[si].Name()))
		}
	}

	var newFn func(w int) (cond.Predictor, []predictor.Indirect, func())
	if probes == nil && trial.resettable() {
		// Recycle: the dry run's set seeds the free list, and each task
		// Resets its set on release for the next task to take.
		free := &setList{sets: []*predictorSet{trial}}
		newFn = func(int) (cond.Predictor, []predictor.Indirect, func()) {
			s := free.take()
			if s == nil {
				s = build()
			}
			return s.cond, s.inds, func() {
				s.reset()
				free.give(s)
			}
		}
	} else {
		// Outputs read the retained instances after the run, or a member
		// cannot Reset: every task builds its own set.
		newFn = func(w int) (cond.Predictor, []predictor.Indirect, func()) {
			s := build()
			retain(probes, pi, w, s.raw)
			return s.cond, s.inds, nil
		}
	}

	if bound {
		// A pass whose predictor shares (and pollutes) the conditional
		// predictor owns its conditional state: never tape-shared.
		return experiments.Pass{New: newFn}, names, nil
	}
	return experiments.Pass{
		CondKey: ce.key(condCfg, len(ps.CondConfig) > 0),
		New:     newFn,
	}, names, nil
}

// predictorSet is one constructed instance of a pass: its conditional
// predictor, the raw indirect instances, and the views the engine runs
// (renamed where the plan names the predictor).
type predictorSet struct {
	cond cond.Predictor
	raw  []predictor.Indirect
	inds []predictor.Indirect
}

// resetter is a predictor that can restore its freshly constructed state
// in place. Reset must leave the instance indistinguishable from New's:
// the same results on any later trace and, for a predictor.Snapshotter,
// the same EncodeState bytes.
type resetter interface{ Reset() }

// resettable reports whether every member of the set can Reset.
func (s *predictorSet) resettable() bool {
	if _, ok := s.cond.(resetter); !ok {
		return false
	}
	for _, ind := range s.raw {
		if _, ok := ind.(resetter); !ok {
			return false
		}
	}
	return true
}

// reset restores every member to its freshly constructed state. A bound
// predictor (VPC) resets only its own structures; the shared conditional
// predictor is reset here as the set's cond.
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

// retain records one (pass, workload) cell's raw instances in the probe
// store. The per-pass slices are preallocated before any task runs and
// each task owns a distinct slot, so no synchronization is needed beyond
// the runner's own completion barrier.
func retain(probes *probeStore, pi, w int, inds []predictor.Indirect) {
	if probes == nil {
		return
	}
	probes.insts[pi][w] = inds
}
