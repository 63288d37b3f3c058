package runspec

import (
	"encoding/json"
	"fmt"
	"math"

	"blbp/internal/core"
)

// builtinOrder is the canonical presentation order (the CLI's "all").
var builtinOrder = []string{
	"table1", "table2", "fig1", "fig6", "fig7",
	"overall", "fig8", "fig9", "holdout", "fig10", "fig11",
	"extras", "arrays", "targetbits", "combined", "hierarchy",
	"cottage", "latency", "seeds",
}

// BuiltinNames lists the built-in plans in presentation order.
func BuiltinNames() []string {
	out := make([]string, len(builtinOrder))
	copy(out, builtinOrder)
	return out
}

// Builtin returns the named built-in plan: the declarative form of what the
// bespoke experiment drivers used to hard-code. Every plan round-trips
// through Encode/Decode, so `-dumpplan` output re-run via `-plan`
// reproduces the compiled-in results byte for byte.
func Builtin(name string) (*Plan, bool) {
	switch name {
	case "table1":
		return analysisPlan(name, "workload suite by source category (paper Table 1)"), true
	case "table2":
		return analysisPlan(name, "predictor configurations and hardware budgets (paper Table 2)"), true
	case "fig1":
		return analysisPlan(name, "branch mix per kilo-instruction (paper Figure 1)"), true
	case "fig6":
		return analysisPlan(name, "polymorphism per workload (paper Figure 6)"), true
	case "fig7":
		return analysisPlan(name, "target-count distribution CCDF (paper Figure 7)"), true
	case "overall", "fig8", "fig9":
		p := standardPlan(name, "the §5.1 headline run rendered as "+name)
		if name == "overall" {
			p.Doc = "suite-mean MPKI of the four standard predictors (§5.1)"
		}
		return p, true
	case "holdout":
		p := standardPlan(name, "the §5.1 table over the holdout suite (CBP-4 analog)")
		p.Suite.Kind = "holdout"
		return p, true
	case "fig10":
		return variantsPlan(name, "optimization ablation vs ITTAGE (paper Figure 10)", ablationArms), true
	case "fig11":
		return variantsPlan(name, "IBTB associativity sweep (paper Figure 11)", assocArms), true
	case "extras":
		return &Plan{
			Name: name,
			Doc:  "extended related-work baselines (§2.2 lineage)",
			Passes: []Pass{{Predictors: []PredictorSpec{
				{Type: "btb"}, {Type: "btb2bit"}, {Type: "targetcache"},
				{Type: "cascaded"}, {Type: "ittage"}, {Type: "blbp"},
			}}},
			Outputs: []Output{{Table: name}},
		}, true
	case "arrays":
		return variantsPlan(name, "weight-SRAM array-count sweep at ~constant storage", arraysArms()), true
	case "targetbits":
		return variantsPlan(name, "target bits folded into BLBP's global history", targetBitsArms), true
	case "combined":
		return &Plan{
			Name: name,
			Doc:  "one BLBP structure for conditional + indirect prediction (§6)",
			Passes: []Pass{
				{Predictors: []PredictorSpec{{Type: "blbp"}}},
				{Predictors: []PredictorSpec{{Type: "combined"}}},
			},
			Outputs: []Output{{Table: name}},
		}, true
	case "hierarchy":
		return &Plan{
			Name: name,
			Doc:  "two-level IBTB hierarchy vs 64-way monolith (§6)",
			Passes: armPasses([]arm{
				{"mono-64way", ""},
				{"mono-8way", `{"IBTB": {"Sets": 512, "Assoc": 8}}`},
				{"hierarchy", `{"UseHierarchicalIBTB": true}`},
			}),
			Outputs: []Output{{Table: name}},
		}, true
	case "cottage":
		return &Plan{
			Name: name,
			Doc:  "COTTAGE (TAGE + ITTAGE) vs hashed perceptron + BLBP (§2.2)",
			Passes: []Pass{
				{Predictors: []PredictorSpec{{Type: "blbp"}}},
				{Cond: "tage", Predictors: []PredictorSpec{{Type: "ittage"}}},
			},
			Outputs: []Output{{Table: name}},
		}, true
	case "latency":
		return &Plan{
			Name:    name,
			Doc:     "BLBP selection latency at 5 cosine similarities per cycle (§3.7)",
			Passes:  []Pass{{Predictors: []PredictorSpec{{Type: "blbp"}}}},
			Outputs: []Output{{Table: name}},
		}, true
	case "seeds":
		p := standardPlan(name, "seed sensitivity of the §5.1 headline across suite draws")
		p.Suite.Salts = []string{"", "a", "b", "c"}
		return p, true
	}
	return nil, false
}

// analysisPlan is a pure workload characterization: no passes, one output.
func analysisPlan(name, doc string) *Plan {
	return &Plan{Name: name, Doc: doc, Outputs: []Output{{Table: name}}}
}

// standardPlan runs the paper's Table 2 line-up: the BTB baseline, ITTAGE,
// and BLBP share a conditional substrate; VPC owns (and pollutes) its own.
func standardPlan(name, doc string) *Plan {
	return &Plan{
		Name: name,
		Doc:  doc,
		Passes: []Pass{
			{Predictors: []PredictorSpec{{Type: "btb"}, {Type: "ittage"}, {Type: "blbp"}}},
			{Predictors: []PredictorSpec{{Type: "vpc"}}},
		},
		Outputs: []Output{{Table: name}},
	}
}

// arm is one BLBP configuration of a sweep: the name its results appear
// under and the JSON override it merges onto the registered default
// configuration ("" runs the default).
type arm struct {
	name, config string
}

// ablationArms are the paper's Figure 10 arms, subsets of §3.6's five
// optimizations (local history, history intervals, transfer function,
// adaptive threshold, selective bit training): all off, each alone, each
// removed from the full predictor, and all on. The default configuration
// has all five on, so each override turns off the ones its arm leaves out.
var ablationArms = []arm{
	{"all-off", `{"UseLocal": false, "UseIntervals": false, "UseTransfer": false, "UseAdaptiveTheta": false, "UseSelective": false}`},
	{"only-local", `{"UseIntervals": false, "UseTransfer": false, "UseAdaptiveTheta": false, "UseSelective": false}`},
	{"only-intervals", `{"UseLocal": false, "UseTransfer": false, "UseAdaptiveTheta": false, "UseSelective": false}`},
	{"only-selective", `{"UseLocal": false, "UseIntervals": false, "UseTransfer": false, "UseAdaptiveTheta": false}`},
	{"only-transfer", `{"UseLocal": false, "UseIntervals": false, "UseAdaptiveTheta": false, "UseSelective": false}`},
	{"only-adaptive", `{"UseLocal": false, "UseIntervals": false, "UseTransfer": false, "UseSelective": false}`},
	{"no-intervals", `{"UseIntervals": false}`},
	{"no-adaptive", `{"UseAdaptiveTheta": false}`},
	{"no-transfer", `{"UseTransfer": false}`},
	{"no-local", `{"UseLocal": false}`},
	{"no-selective", `{"UseSelective": false}`},
	{"all-on", ""},
}

// assocArms sweep IBTB associativity at the default's 4,096 entries, as
// the paper's Figure 11 does; the default is 64-way.
var assocArms = []arm{
	{"assoc-4", `{"IBTB": {"Sets": 1024, "Assoc": 4}}`},
	{"assoc-8", `{"IBTB": {"Sets": 512, "Assoc": 8}}`},
	{"assoc-16", `{"IBTB": {"Sets": 256, "Assoc": 16}}`},
	{"assoc-32", `{"IBTB": {"Sets": 128, "Assoc": 32}}`},
	{"assoc-64", ""},
}

// targetBitsArms sweep GlobalTargetBits, the implementation choice DESIGN.md
// §2 documents: how many hashed target bits each resolved indirect branch
// contributes to BLBP's global history. 0 is the paper-literal
// conditional-only history; the default is 2.
var targetBitsArms = []arm{
	{"targetbits-0", `{"GlobalTargetBits": 0}`},
	{"targetbits-1", `{"GlobalTargetBits": 1}`},
	{"targetbits-2", ""},
	{"targetbits-4", `{"GlobalTargetBits": 4}`},
}

// arraysArms sweep the number of weight SRAM arrays, one local table plus
// n-1 tables over geometric history intervals. The paper's §3 positions
// BLBP as reducing SNIP's 44 arrays to 8; this sweep quantifies the
// trade-off. Each arm scales its rows down to a power of two so that total
// weight storage stays roughly the default's.
func arraysArms() []arm {
	def := core.DefaultConfig()
	totalRows := def.SubPredictors() * def.TableEntries
	var arms []arm
	for _, n := range []int{2, 4, 8, 16, 24, 44} {
		intervals, lengths := geometricIntervals(n-1, def.HistBits-1)
		rows := 1
		for rows*2 <= totalRows/n {
			rows *= 2
		}
		// Ints and slices of ints always marshal.
		override, _ := json.Marshal(struct {
			TableEntries int
			Intervals    []core.Interval
			GEHLLengths  []int
		}{rows, intervals, lengths})
		arms = append(arms, arm{fmt.Sprintf("arrays-%d", n), string(override)})
	}
	return arms
}

// geometricIntervals splits the usable history depth into n geometric
// intervals, each starting slightly before the previous one ends, as the
// paper's tuned intervals overlap, with the GEHL lengths that go with them.
func geometricIntervals(n, maxHist int) ([]core.Interval, []int) {
	intervals := make([]core.Interval, n)
	lengths := make([]int, n)
	lo := 0
	hi := 13
	ratio := 1.0
	if n > 1 {
		// Choose the growth so the last interval ends at maxHist.
		ratio = math.Pow(float64(maxHist)/13, 1/float64(n-1))
	}
	end := 13.0
	for i := 0; i < n; i++ {
		if hi > maxHist {
			hi = maxHist
		}
		intervals[i] = core.Interval{Lo: lo, Hi: hi}
		lengths[i] = hi + 1
		// Next interval starts inside the current one (~15% overlap).
		lo = hi - (hi-lo)/6
		end *= ratio
		hi = int(end + 0.5)
		if hi <= lo {
			hi = lo + 1
		}
	}
	intervals[n-1].Hi = maxHist
	if intervals[n-1].Lo >= maxHist {
		intervals[n-1].Lo = maxHist - 1
	}
	lengths[n-1] = maxHist + 1
	return intervals, lengths
}

// armPasses gives each arm a single-predictor pass, so the scheduler fans
// the arms out as independent tasks.
func armPasses(arms []arm) []Pass {
	passes := make([]Pass, 0, len(arms)+1)
	for _, a := range arms {
		spec := PredictorSpec{Type: "blbp", Name: a.name}
		if a.config != "" {
			spec.Config = json.RawMessage(a.config)
		}
		passes = append(passes, Pass{Predictors: []PredictorSpec{spec}})
	}
	return passes
}

// variantsPlan runs a BLBP sweep, one pass per arm, plus the ITTAGE
// reference pass.
func variantsPlan(name, doc string, arms []arm) *Plan {
	passes := append(armPasses(arms), Pass{Predictors: []PredictorSpec{{Type: "ittage"}}})
	return &Plan{Name: name, Doc: doc, Passes: passes, Outputs: []Output{{Table: name}}}
}
