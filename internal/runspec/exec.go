package runspec

import (
	"encoding/json"
	"fmt"
	"strings"

	"blbp/internal/experiments"
	"blbp/internal/report"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

// Exec drives plans over one experiments.Runner. Identical (suite, passes)
// combinations are simulated once and reused across plans, so e.g. the
// overall, fig8, and fig9 built-ins — three plans over the same standard
// passes — cost a single suite run per process, as the bespoke drivers'
// shared lazy computation used to.
type Exec struct {
	r    *experiments.Runner
	base int64
	memo map[string]*suiteRun
	// registry holds session-registered workload specs (RegisterWorkload);
	// spec-listed suites resolve names here before the built-ins.
	registry map[string]wspec.WorkloadSpec
}

// suiteRun is one memoized simulation: the per-draw results and the
// compiled plan (whose observations probe outputs read).
type suiteRun struct {
	results [][]experiments.WorkloadResult
	cp      *compiledPlan
}

// NewExec returns an executor over r. base is the default per-SHORT-trace
// instruction budget for plans that don't pin one (the CLI's -base flag).
func NewExec(r *experiments.Runner, base int64) *Exec {
	return &Exec{r: r, base: base, memo: map[string]*suiteRun{}}
}

// Runner exposes the underlying execution layer (characterization outputs
// use its analysis path).
func (x *Exec) Runner() *experiments.Runner { return x.r }

// RenderedOutput is one assembled output of a plan.
type RenderedOutput struct {
	// Name is the output's registered table name.
	Name string
	// File is the CSV base name (Output.File, defaulted to Name).
	File string
	// Table is the assembled report table.
	Table *report.Table
	// Chart is an optional bar-chart rendition (fig10/fig11).
	Chart *report.Chart
	// Data is the output's structured result (type varies per output).
	Data any
}

// Run validates and executes the plan, returning its outputs in plan
// order.
func (x *Exec) Run(plan *Plan) ([]RenderedOutput, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	suites, err := x.resolveSuites(plan.Suite)
	if err != nil {
		return nil, err
	}
	needsPasses, needsProbes := false, false
	for _, out := range plan.Outputs {
		oe, _ := lookupOutput(out.Table)
		needsPasses = needsPasses || oe.needsPasses
		needsProbes = needsProbes || oe.needsProbes
	}

	ctx := &OutputContext{exec: x, plan: plan, suites: suites}
	if len(plan.Passes) > 0 && needsPasses {
		run, err := x.runSuites(plan, suites, needsProbes)
		if err != nil {
			return nil, err
		}
		ctx.results = run.results
		ctx.cp = run.cp
	}

	outs := make([]RenderedOutput, 0, len(plan.Outputs))
	for _, out := range plan.Outputs {
		oe, _ := lookupOutput(out.Table)
		tb, ch, data, err := oe.render(ctx)
		if err != nil {
			return nil, fmt.Errorf("runspec: output %s: %v", out.Table, err)
		}
		file := out.File
		if file == "" {
			file = out.Table
		}
		outs = append(outs, RenderedOutput{Name: out.Table, File: file, Table: tb, Chart: ch, Data: data})
	}
	return outs, nil
}

// runSuites simulates the plan's passes over the resolved suites, memoized
// on the (suite, passes, probes) triple.
func (x *Exec) runSuites(plan *Plan, suites [][]workload.Spec, withProbes bool) (*suiteRun, error) {
	key, err := memoKey(plan, x.base, withProbes)
	if err != nil {
		return nil, err
	}
	if run, ok := x.memo[key]; ok {
		return run, nil
	}
	cp, err := compilePasses(plan, len(suites[0]), withProbes)
	if err != nil {
		return nil, err
	}
	results, err := x.r.RunSuites(suites, cp.passes)
	if err != nil {
		return nil, err
	}
	// The memo keeps cp for its names and probes; dropping the passes
	// frees their recycled predictor sets.
	cp.passes = nil
	run := &suiteRun{results: results, cp: cp}
	x.memo[key] = run
	return run, nil
}

// memoKey canonicalizes what determines a simulation's results: the
// resolved suite selection and the passes. Two plans with byte-equal keys
// share one run.
func memoKey(plan *Plan, base int64, withProbes bool) (string, error) {
	s := plan.Suite
	if s.Base == 0 {
		s.Base = base
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	if err := enc.Encode(s); err != nil {
		return "", fmt.Errorf("runspec: %v", err)
	}
	if err := enc.Encode(plan.Passes); err != nil {
		return "", fmt.Errorf("runspec: %v", err)
	}
	fmt.Fprintf(&b, "probes=%t", withProbes)
	return b.String(), nil
}

// resolveSuites materializes the plan's workload population: one spec
// slice per seeded draw (spec-listed suites are a single draw, compiled
// from the executor's registries).
func (x *Exec) resolveSuites(s Suite) ([][]workload.Spec, error) {
	if len(s.Specs) > 0 {
		return x.resolveSpecSuite(s)
	}
	b := s.Base
	if b == 0 {
		b = x.base
	}
	salts := s.Salts
	if len(salts) == 0 {
		salts = []string{""}
	}
	suites := make([][]workload.Spec, len(salts))
	for i, salt := range salts {
		var specs []workload.Spec
		if s.Kind == "holdout" {
			specs = wspec.SuiteHoldout(b)
		} else {
			specs = wspec.SuiteSeeded(b, salt)
		}
		specs, err := subsetSuite(specs, s.Workloads)
		if err != nil {
			return nil, err
		}
		suites[i] = specs
	}
	return suites, nil
}

// subsetSuite restricts specs to the named workloads, preserving suite
// order. Unknown names are an error so plan typos surface.
func subsetSuite(specs []workload.Spec, names []string) ([]workload.Spec, error) {
	if len(names) == 0 {
		return specs, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make([]workload.Spec, 0, len(names))
	for _, sp := range specs {
		if want[sp.Name] {
			out = append(out, sp)
			delete(want, sp.Name)
		}
	}
	if len(want) > 0 {
		// Reconstruct the missing names in request order (no map range).
		missing := make([]string, 0, len(want))
		for _, n := range names {
			if want[n] {
				want[n] = false
				missing = append(missing, n)
			}
		}
		return nil, fmt.Errorf("runspec: suite has no workload(s) %s", strings.Join(missing, ", "))
	}
	return out, nil
}
