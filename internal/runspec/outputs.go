package runspec

import (
	"fmt"

	"blbp/internal/core"
	"blbp/internal/experiments"
	"blbp/internal/report"
	"blbp/internal/workload"
)

// OutputContext is what an output assembler sees: the plan, the resolved
// suites, and (when the plan ran passes) the per-draw results plus the
// compiled-pass bookkeeping.
type OutputContext struct {
	exec    *Exec
	plan    *Plan
	suites  [][]workload.Spec
	results [][]experiments.WorkloadResult
	cp      *compiledPlan
}

// suite returns the first (usually only) suite draw.
func (c *OutputContext) suite() []workload.Spec { return c.suites[0] }

// rows returns the first draw's per-workload results.
func (c *OutputContext) rows() ([]experiments.WorkloadResult, error) {
	if c.results == nil {
		return nil, fmt.Errorf("plan ran no passes")
	}
	return c.results[0], nil
}

// names returns the plan's predictor display names in (pass, spec) order.
func (c *OutputContext) names() []string {
	if c.cp == nil {
		return nil
	}
	return c.cp.names
}

// variants returns the display names and storage bits of every predictor
// except the named reference (sweep outputs treat "ittage" as the
// reference arm).
func (c *OutputContext) variants(reference string) ([]string, []int) {
	var names []string
	var bits []int
	for i, n := range c.names() {
		if n == reference {
			continue
		}
		names = append(names, n)
		bits = append(bits, c.cp.budgets[i].bits)
	}
	return names, bits
}

// requireNames checks that every named predictor contributed results.
func (c *OutputContext) requireNames(rows []experiments.WorkloadResult, names []string) error {
	if len(rows) == 0 {
		return fmt.Errorf("no workloads")
	}
	for _, n := range names {
		if _, ok := rows[0].Results[n]; !ok {
			return fmt.Errorf("plan has no predictor named %q (it has %v)", n, c.names())
		}
	}
	return nil
}

// observation returns workload w's observation of the named predictor.
// Only a BLBP counts into its cell, and attaching sizes the cell's
// histogram, so a cell without one belongs to a predictor that exposes no
// such value: what names the value the caller reads of it.
func (c *OutputContext) observation(w int, name, what string) (*core.Observation, error) {
	if c.cp == nil || c.cp.obs == nil {
		return nil, fmt.Errorf("no observations recorded")
	}
	for i, n := range c.cp.names {
		if n != name {
			continue
		}
		o := &c.cp.obs[w][i]
		if o.Candidates == nil {
			return nil, fmt.Errorf("predictor %q exposes no %s", name, what)
		}
		return o, nil
	}
	return nil, fmt.Errorf("plan has no predictor named %q", name)
}

// outputEntry is one registered output assembler.
type outputEntry struct {
	name string
	doc  string
	// needsPasses marks outputs assembled from simulation results (vs
	// pure workload characterizations).
	needsPasses bool
	// needsProbes marks outputs that read BLBP observations: their plans
	// attach a core.Observation to every BLBP member of each task.
	needsProbes bool
	render      func(*OutputContext) (*report.Table, *report.Chart, any, error)
}

var (
	outputOrder    []string
	outputRegistry = map[string]outputEntry{}
)

func registerOutput(e outputEntry) {
	if _, dup := outputRegistry[e.name]; dup {
		panic(fmt.Sprintf("runspec: duplicate output %q", e.name))
	}
	outputRegistry[e.name] = e
	outputOrder = append(outputOrder, e.name)
}

func lookupOutput(name string) (outputEntry, bool) {
	e, ok := outputRegistry[name]
	return e, ok
}

// OutputNames lists the registered output tables in registration order.
func OutputNames() []string {
	out := make([]string, len(outputOrder))
	copy(out, outputOrder)
	return out
}

// OutputInfo describes one output for -list.
type OutputInfo struct {
	Name string
	Doc  string
}

// OutputInfos describes the registered outputs in registration order.
func OutputInfos() []OutputInfo {
	out := make([]OutputInfo, 0, len(outputOrder))
	for _, n := range outputOrder {
		e := outputRegistry[n]
		out = append(out, OutputInfo{Name: n, Doc: e.doc})
	}
	return out
}

// tableOnly adapts an assembler that produces just a table.
func tableOnly(f func(*OutputContext) (*report.Table, any, error)) func(*OutputContext) (*report.Table, *report.Chart, any, error) {
	return func(c *OutputContext) (*report.Table, *report.Chart, any, error) {
		tb, data, err := f(c)
		return tb, nil, data, err
	}
}
