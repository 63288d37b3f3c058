// Package wspec is the declarative workload layer: a JSON-serializable
// WorkloadSpec names a generator kind with its full parameter struct, or
// composes generators with spec-only operators — weighted multi-client
// mixes (optionally with per-client seeds), phase schedules over the
// instruction budget, per-instance parameter distributions, and replay of
// a recorded spill file. Specs are validated at decode time with exact
// errors (mirroring internal/runspec's RunPlans) and compiled down to the
// workload.Spec the cache, scheduler, batch engine, and snapshot layers
// already consume — so any scenario runs end to end without new Go code.
//
// The paper-mirroring 88-workload suite and the 12-workload holdout are
// themselves built-in specs here (see SuiteSpecs / HoldoutSpecs), compiled
// byte-identically to the former closure-based suite; run plans reference
// them by name through the registry (Lookup / Names).
package wspec

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"blbp/internal/workload"
)

// WorkloadSpec is one declarative workload: a named, seeded generator tree
// with an instruction budget.
type WorkloadSpec struct {
	// Name is the unique workload name.
	Name string `json:"name"`
	// Category labels the workload in characterization tables; empty is
	// fine for user scenarios.
	Category string `json:"category,omitempty"`
	// Seed drives all generator randomness; nil derives the seed from the
	// name (workload.SeedFor), which is how every built-in suite entry is
	// seeded.
	Seed *int64 `json:"seed,omitempty"`
	// Instructions is the trace length. Replay specs leave it 0 — the
	// recorded file's budget applies.
	Instructions int64 `json:"instructions,omitempty"`
	// Generator is the root of the generator tree.
	Generator Node `json:"generator"`
}

// Node is one generator-tree node: a leaf generator kind with parameters
// (interpreter, vdispatch, switcher, callbacks, mono, recursive), or a
// compositor (mixed, phases, replay).
type Node struct {
	// Kind selects the generator or compositor.
	Kind string `json:"kind"`
	// Params holds the leaf kind's parameter struct (the exported
	// workload.*Params types, by Go field name). Omitted fields default to
	// zero, exactly as Leaf takes them.
	Params json.RawMessage `json:"params,omitempty"`
	// Draw maps leaf parameter names to ranges drawn per instance at build
	// time (uniformly, from the build rng): distributions over entropy,
	// fan-out, footprint. Drawn values override Params fields.
	Draw map[string]Range `json:"draw,omitempty"`
	// Random selects random interleaving for a mixed node (default is
	// weighted round-robin).
	Random bool `json:"random,omitempty"`
	// Parts lists a mixed node's weighted sub-generators.
	Parts []Part `json:"parts,omitempty"`
	// Phases lists a phases node's schedule segments.
	Phases []PhaseSpec `json:"phases,omitempty"`
	// Path names a replay node's recorded spill file.
	Path string `json:"path,omitempty"`
}

// Part is one client of a mixed node.
type Part struct {
	// Weight is the part's interleave weight (steps per round-robin round,
	// or selection probability weight under Random).
	Weight int `json:"weight"`
	// Seed, when set, gives this client its own random stream seeded here
	// — its draws are then independent of the other clients' interleaving.
	// Nil shares the spec's build rng, the built-in suites' behavior.
	Seed *int64 `json:"seed,omitempty"`
	// Generator is the part's sub-tree.
	Generator Node `json:"generator"`
}

// PhaseSpec is one segment of a phase schedule.
type PhaseSpec struct {
	// Until is the absolute instruction count at which the next phase takes
	// over; 0 (allowed on the last phase only) runs to the end of the trace.
	Until int64 `json:"until,omitempty"`
	// Generator is the phase's sub-tree.
	Generator Node `json:"generator"`
}

// Range bounds one drawn parameter. Integer parameters draw uniformly from
// the integers in [Min, Max]; float parameters draw uniformly from the
// real interval.
type Range struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// kindNames lists every accepted Node.Kind, alphabetically (the order
// error messages cite).
var kindNames = []string{"callbacks", "interpreter", "mixed", "mono", "phases", "recursive", "replay", "switcher", "vdispatch"}

// maxNesting bounds generator-tree depth (fuzz inputs aside, two levels —
// a phase schedule of mixes — covers every real scenario).
const maxNesting = 8

// Decode parses and validates one workload spec from JSON. Unknown fields
// anywhere in the document are rejected.
func Decode(data []byte) (*WorkloadSpec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var ws WorkloadSpec
	if err := dec.Decode(&ws); err != nil {
		return nil, fmt.Errorf("wspec: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("wspec: trailing data after spec object")
	}
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	return &ws, nil
}

// DecodeAll parses a spec file holding either one spec object or an array
// of them, validating each.
func DecodeAll(data []byte) ([]WorkloadSpec, error) {
	trimmed := strings.TrimLeft(string(data), " \t\r\n")
	if !strings.HasPrefix(trimmed, "[") {
		ws, err := Decode(data)
		if err != nil {
			return nil, err
		}
		return []WorkloadSpec{*ws}, nil
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var specs []WorkloadSpec
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("wspec: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("wspec: trailing data after spec array")
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("wspec: spec %d of %d: %v", i+1, len(specs), err)
		}
	}
	return specs, nil
}

// Encode renders the spec as indented JSON (the -dumpspec format).
func (ws *WorkloadSpec) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(ws, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("wspec: %v", err)
	}
	return append(b, '\n'), nil
}

// Validate checks the spec's static structure: the generator tree's kinds,
// parameters (decoded strictly against the generator's parameter struct),
// draw ranges, mix weights, phase boundaries, and bank bounds.
func (ws *WorkloadSpec) Validate() error {
	if ws.Name == "" {
		return fmt.Errorf("wspec: spec needs a name")
	}
	if ws.Generator.Kind == "replay" {
		if ws.Instructions != 0 {
			return fmt.Errorf("wspec: spec %q: replay takes its instruction count from the recorded file; leave instructions 0", ws.Name)
		}
	} else if ws.Instructions <= 0 {
		return fmt.Errorf("wspec: spec %q: instructions must be positive", ws.Name)
	}
	var entries int64
	if err := ws.validateNode(&ws.Generator, "generator", 0, true, &entries); err != nil {
		return err
	}
	if entries > maxTableEntries {
		return fmt.Errorf("wspec: spec %q: generator: its leaves' tables total %d entries, above the maximum %d", ws.Name, entries, maxTableEntries)
	}
	return nil
}

// validateNode checks the subtree at n and adds the table entries its
// leaves allocate when built (see validateSizes) to *entries.
func (ws *WorkloadSpec) validateNode(n *Node, at string, depth int, top bool, entries *int64) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("wspec: spec %q: %s: %s", ws.Name, at, fmt.Sprintf(format, args...))
	}
	if depth > maxNesting {
		return bad("generator nesting too deep")
	}
	switch n.Kind {
	case "interpreter", "vdispatch", "switcher", "callbacks", "mono", "recursive":
		if len(n.Parts) > 0 || n.Random {
			return bad("%q applies to kind \"mixed\" only", map[bool]string{true: "random", false: "parts"}[len(n.Parts) == 0])
		}
		if len(n.Phases) > 0 {
			return bad("\"phases\" applies to kind \"phases\" only")
		}
		if n.Path != "" {
			return bad("\"path\" applies to kind \"replay\" only")
		}
		params, err := decodeLeafParams(n.Kind, n.Params)
		if err != nil {
			return bad("%v", err)
		}
		if bank := paramsBank(params); bank < 0 || bank >= workload.MaxBank {
			return bad("bank %d out of range [0, %d)", bank, workload.MaxBank)
		}
		if err := ws.validateDraw(n, params, at); err != nil {
			return err
		}
		leaf, err := validateSizes(n, params, bad)
		*entries += leaf
		return err
	case "mixed":
		if err := noLeafFields(n, bad); err != nil {
			return err
		}
		if n.Path != "" {
			return bad("\"path\" applies to kind \"replay\" only")
		}
		if len(n.Phases) > 0 {
			return bad("\"phases\" applies to kind \"phases\" only")
		}
		if len(n.Parts) == 0 {
			return bad("mixed needs at least one part")
		}
		total := 0
		for i := range n.Parts {
			if n.Parts[i].Weight <= 0 {
				return fmt.Errorf("wspec: spec %q: %s: mixed part %d: weight must be positive", ws.Name, at, i)
			}
			if total += n.Parts[i].Weight; total < 0 {
				return fmt.Errorf("wspec: spec %q: %s: mixed part %d: weights overflow their sum", ws.Name, at, i)
			}
			if err := ws.validateNode(&n.Parts[i].Generator, fmt.Sprintf("%s: mixed part %d", at, i), depth+1, false, entries); err != nil {
				return err
			}
		}
		return nil
	case "phases":
		if err := noLeafFields(n, bad); err != nil {
			return err
		}
		if len(n.Parts) > 0 || n.Random {
			return bad("%q applies to kind \"mixed\" only", map[bool]string{true: "random", false: "parts"}[len(n.Parts) == 0])
		}
		if n.Path != "" {
			return bad("\"path\" applies to kind \"replay\" only")
		}
		if len(n.Phases) == 0 {
			return bad("phases needs at least one phase")
		}
		prev := int64(0)
		for i := range n.Phases {
			until := n.Phases[i].Until
			last := i == len(n.Phases)-1
			if until == 0 && !last {
				return fmt.Errorf("wspec: spec %q: %s: phase %d: boundary must be positive (only the last phase may run to the end)", ws.Name, at, i)
			}
			if until != 0 {
				if until <= prev {
					return fmt.Errorf("wspec: spec %q: %s: phase %d: boundary %d not after previous %d", ws.Name, at, i, until, prev)
				}
				if ws.Instructions > 0 && !last && until >= ws.Instructions {
					return fmt.Errorf("wspec: spec %q: %s: phase %d: boundary %d at or past the instruction budget %d", ws.Name, at, i, until, ws.Instructions)
				}
				prev = until
			}
			if err := ws.validateNode(&n.Phases[i].Generator, fmt.Sprintf("%s: phase %d", at, i), depth+1, false, entries); err != nil {
				return err
			}
		}
		return nil
	case "replay":
		if !top {
			return bad("replay cannot be nested")
		}
		if err := noLeafFields(n, bad); err != nil {
			return err
		}
		if len(n.Parts) > 0 || n.Random || len(n.Phases) > 0 {
			return bad("replay composes with nothing; it names a recorded file")
		}
		if n.Path == "" {
			return bad("replay needs a path")
		}
		return nil
	case "":
		return bad("generator needs a kind (want %s)", strings.Join(kindNames, ", "))
	default:
		return bad("unknown generator kind %q (want %s)", n.Kind, strings.Join(kindNames, ", "))
	}
}

// noLeafFields rejects leaf-only fields on compositor nodes.
func noLeafFields(n *Node, bad func(string, ...any) error) error {
	if len(n.Params) > 0 {
		return bad("\"params\" applies to generator kinds only")
	}
	if len(n.Draw) > 0 {
		return bad("\"draw\" applies to generator kinds only")
	}
	return nil
}

// validateDraw checks every drawn field against the decoded parameter
// struct: the field must exist, be numeric, and have a non-inverted range
// (integral parameters additionally need integral bounds).
func (ws *WorkloadSpec) validateDraw(n *Node, params factoryParams, at string) error {
	if len(n.Draw) == 0 {
		return nil
	}
	pv := reflect.ValueOf(params)
	for _, name := range sortedDrawFields(n.Draw) {
		r := n.Draw[name]
		f := pv.FieldByName(name)
		if !f.IsValid() {
			return fmt.Errorf("wspec: spec %q: %s: draw names no %s parameter %q", ws.Name, at, n.Kind, name)
		}
		switch f.Kind() {
		case reflect.Int:
			if r.Min != float64(int64(r.Min)) || r.Max != float64(int64(r.Max)) {
				return fmt.Errorf("wspec: spec %q: %s: draw range for %q must have integral bounds", ws.Name, at, name)
			}
		case reflect.Float64:
		default:
			return fmt.Errorf("wspec: spec %q: %s: parameter %q is not numeric", ws.Name, at, name)
		}
		if r.Min > r.Max {
			return fmt.Errorf("wspec: spec %q: %s: draw range for %q inverted (min %g > max %g)", ws.Name, at, name, r.Min, r.Max)
		}
	}
	return nil
}

// minSizes lists the sizes each generator constructor panics without: the
// named integer parameters must reach these minimums.
var minSizes = map[string]map[string]int64{
	"interpreter": {"Opcodes": 1, "ProgramLen": 1},
	"vdispatch":   {"Classes": 1, "Sites": 1, "Objects": 1},
	"switcher":    {"Tokens": 2},
	"callbacks":   {"Events": 1},
	"mono":        {"Sites": 1},
	"recursive":   {"MinDepth": 1, "MaxDepth": 1},
}

// maxSkew bounds a callbacks node's Zipf skew. zipfTable divides once per
// unit of skew, and its loop never ends once s-1 rounds back to s in
// float64; no built-in uses more than 2.8.
const maxSkew = 64

// maxSize bounds every integer generator parameter, static or at the top of
// its draw range. The generator constructors allocate by their sizes before
// they emit an instruction (the interpreter's Zipf table, handlers and
// biases by Opcodes; vdispatch's Classes × Sites target table), so an
// unbounded size reaches gigabytes. No built-in uses more than 420
// (interpreter ProgramLen); the largest table the cap allows one generator
// is vdispatch's 4,096² × 8 B = 128 MiB.
const maxSize = 4096

// maxTableEntries bounds a whole spec's table entries, the sum of what
// validateSizes charges its leaves. A mixed or phases node constructs every
// part before the first instruction, so without it N parts at the per-leaf
// cap would allocate N of the largest table. The bound is one leaf's
// maximum, maxSize².
const maxTableEntries = maxSize * maxSize

// validateSizes checks the preconditions the generator constructors enforce
// by panicking, over every value an integer parameter can take at build
// time: its static value, or each value of its draw range. No integer
// parameter may be negative or exceed maxSize, minSizes' parameters must
// reach their minimums, a drawn bank must stay in range, and a recursive
// node's MinDepth must never exceed its MaxDepth. A callbacks node's Skew,
// static or drawn, must not exceed maxSkew. It runs after validateDraw, so
// every drawn parameter exists and has an ordered range, integral for an
// integer parameter.
//
// It returns the leaf's charge against maxTableEntries: the entries of the
// largest table its constructor allocates, at the top of every draw range.
// That is Classes × Sites for vdispatch and Opcodes × CondPerHandler for
// the interpreter, and at least the largest integer parameter for every
// kind.
func validateSizes(n *Node, params factoryParams, bad func(string, ...any) error) (int64, error) {
	pv := reflect.ValueOf(params)
	span := func(name string) (lo, hi int64) {
		if r, ok := n.Draw[name]; ok {
			return int64(r.Min), int64(r.Max)
		}
		v := pv.FieldByName(name).Int()
		return v, v
	}
	var entries int64
	for i := 0; i < pv.NumField(); i++ {
		if pv.Field(i).Kind() != reflect.Int {
			continue
		}
		name := pv.Type().Field(i).Name
		lo, hi := span(name)
		if least := minSizes[n.Kind][name]; lo < least {
			if _, drawn := n.Draw[name]; drawn {
				return 0, bad("%s draw range for %q starts at %d, below its minimum %d", n.Kind, name, lo, least)
			}
			return 0, bad("%s parameter %q is %d, below its minimum %d", n.Kind, name, lo, least)
		}
		if name == "Bank" && hi >= workload.MaxBank {
			return 0, bad("draw range for \"Bank\" ends at %d, out of range [0, %d)", hi, workload.MaxBank)
		}
		if hi > maxSize {
			if _, drawn := n.Draw[name]; drawn {
				return 0, bad("%s draw range for %q ends at %d, above its maximum %d", n.Kind, name, hi, maxSize)
			}
			return 0, bad("%s parameter %q is %d, above its maximum %d", n.Kind, name, hi, maxSize)
		}
		entries = max(entries, hi)
	}
	if n.Kind == "recursive" {
		_, minDepth := span("MinDepth")
		maxDepth, _ := span("MaxDepth")
		if minDepth > maxDepth {
			return 0, bad("recursive needs MinDepth <= MaxDepth, but MinDepth can be %d and MaxDepth %d", minDepth, maxDepth)
		}
	}
	if cb, ok := params.(workload.CallbacksParams); ok {
		if r, drawn := n.Draw["Skew"]; drawn {
			if r.Max > maxSkew {
				return 0, bad("callbacks draw range for \"Skew\" ends at %g, above its maximum %d", r.Max, maxSkew)
			}
		} else if cb.Skew > maxSkew {
			return 0, bad("callbacks parameter \"Skew\" is %g, above its maximum %d", cb.Skew, maxSkew)
		}
	}
	table := func(rows, cols string) int64 {
		_, r := span(rows)
		_, c := span(cols)
		return r * c
	}
	switch n.Kind {
	case "vdispatch":
		entries = max(entries, table("Classes", "Sites"))
	case "interpreter":
		entries = max(entries, table("Opcodes", "CondPerHandler"))
	}
	return entries, nil
}

// sortedDrawFields returns the draw map's keys in sorted order, the one
// deterministic order draws are validated, canonicalized, and applied in.
func sortedDrawFields(draw map[string]Range) []string {
	fields := make([]string, 0, len(draw))
	//blbp:allow(determinism) keys are collected then sorted; iteration order never escapes
	for name := range draw {
		fields = append(fields, name)
	}
	sort.Strings(fields)
	return fields
}
