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
	// probes holds the values probe outputs read per (pass, workload),
	// copied out of each task's predictors before they are Reset; nil when
	// the plan has no probe output.
	probes *probeStore
}

// probe is what the probe outputs read of one predictor after its task:
// BLBP's candidate-set histogram (latency) and its IBTB's L2 probe rate
// (hierarchy). candHist is nil, and hasL2 false, for a predictor that
// exposes no such value.
type probe struct {
	candHist []int64
	l2Rate   float64
	hasL2    bool
}

// probeStore holds the probe values of every (pass, workload) cell. Each
// simulation task writes only its own cell, so concurrent passes never
// share a slot.
type probeStore struct {
	cells [][][]probe // [pass][workload][spec-in-pass]
	names [][]string  // [pass][spec-in-pass] display names
}

// record copies one (pass, workload) cell's probe values out of its raw
// (pre-rename) instances. The per-pass slices are preallocated before any
// task runs and each task owns a distinct slot, so no synchronization is
// needed beyond the runner's own completion barrier.
func (s *probeStore) record(pi, w int, raw []predictor.Indirect) {
	cell := make([]probe, len(raw))
	for si, ind := range raw {
		if h, ok := ind.(interface{ CandidateHistogram() []int64 }); ok {
			cell[si].candHist = h.CandidateHistogram()
		}
		if h, ok := ind.(interface{ L2ProbeRate() float64 }); ok {
			cell[si].l2Rate, cell[si].hasL2 = h.L2ProbeRate(), true
		}
	}
	s.cells[pi][w] = cell
}

// find returns workload w's probe values of the named predictor (false if
// the plan has no such predictor or the cell never ran).
func (s *probeStore) find(w int, name string) (probe, bool) {
	for pi := range s.names {
		for si, n := range s.names[pi] {
			if n != name {
				continue
			}
			if w >= len(s.cells[pi]) || s.cells[pi][w] == nil {
				return probe{}, false
			}
			return s.cells[pi][w][si], true
		}
	}
	return probe{}, false
}

// compilePasses lowers the plan's passes. Every constructor is dry-run
// once here so config and wiring errors surface before any simulation;
// each pass keeps the dry run's set as its first free one, and any later
// construction only repeats one known to succeed.
func compilePasses(p *Plan, workloads int, withProbes bool) (*compiledPlan, error) {
	cp := &compiledPlan{}
	if withProbes {
		cp.probes = &probeStore{
			cells: make([][][]probe, len(p.Passes)),
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
			// releases below only ever write their own (pass, workload)
			// slot.
			cp.probes.cells[pi] = make([][]probe, workloads)
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
			return fail(fmt.Errorf("unknown predictor type %q", spec.Type))
		}
		cfg, err := e.Config(spec.Config)
		if err != nil {
			return fail(err)
		}
		specs[si] = resolved{entry: e, cfg: cfg}
		names[si] = displayName(spec)
		provider = provider || e.NewProvider != nil
		bound = bound || e.NewBound != nil
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
	// predictor (a consolidated predictor is its own), then every indirect
	// predictor (bound ones over it). The set's release copies its task's
	// probe values out (plans with a probe output only), Resets the set
	// and hands it back to free.
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
			if probes != nil {
				probes.record(pi, s.w, s.raw)
			}
			s.reset()
			free.give(s)
		}
		return s, nil
	}

	// Dry-run the whole pass once: the conditional predictor, every
	// indirect predictor, their Resets, and the natural-name fallback
	// check.
	trial, err := newSet()
	if err != nil {
		return fail(err)
	}
	if _, ok := trial.cond.(resetter); !ok {
		return fail(fmt.Errorf("conditional predictor %q has no Reset", trial.cond.Name()))
	}
	for si, r := range specs {
		if _, ok := trial.raw[si].(resetter); !ok {
			return fail(fmt.Errorf("predictor %q has no Reset", r.entry.Name))
		}
		// A config override can change what the instance calls itself
		// (btb's hysteresis flag); without an explicit name the results
		// would then be keyed differently than the plan expects.
		if ps.Predictors[si].Name == "" && trial.raw[si].Name() != names[si] {
			return fail(fmt.Errorf("predictor %q reports results as %q with this config; set \"name\" explicitly",
				r.entry.Name, trial.raw[si].Name()))
		}
	}

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
		s.w = w
		return s.cond, s.inds, s.release
	}

	if provider || bound {
		// A pass whose predictor is, or shares (and pollutes), the
		// conditional predictor owns its conditional state: never
		// tape-shared.
		return experiments.Pass{New: newFn}, names, nil
	}
	return experiments.Pass{
		CondKey: ce.key(condCfg, len(ps.CondConfig) > 0),
		New:     newFn,
	}, names, nil
}

// predictorSet is one constructed instance of a pass: its conditional
// predictor, the raw indirect instances, and the views the engine runs
// (renamed where the plan names the predictor). w is the workload index of
// the task holding the set; release is built once per set, so handing a
// set to a task allocates nothing.
type predictorSet struct {
	cond    cond.Predictor
	raw     []predictor.Indirect
	inds    []predictor.Indirect
	w       int
	release func()
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
