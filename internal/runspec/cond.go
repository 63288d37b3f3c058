package runspec

import (
	"encoding/json"
	"fmt"

	"blbp/internal/cond"
	"blbp/internal/experiments"
	"blbp/internal/predictor"
)

// condEntry is one registered conditional predictor substrate.
type condEntry struct {
	name string
	doc  string
	// defaultKey is the tape-sharing key of the default configuration.
	// The hashed-perceptron and TAGE keys are the exported
	// experiments.CondKeyHP/CondKeyTAGE. Outside this layer only perfbench
	// uses them: its hot mode primes each cached tape's memo under
	// CondKeyHP, so the plan-driven passes it then times find the memo
	// filled, and its traced replay keys its passes the same way.
	defaultKey string
	def        func() any
	build      func(cfg any) (cond.Predictor, error)
}

// config materializes the substrate's configuration with overrides.
func (e condEntry) config(overrides []byte) (any, error) {
	cfg, err := predictor.MergeJSON(e.def(), overrides)
	if err != nil {
		return nil, fmt.Errorf("cond %s config: %v", e.name, err)
	}
	return cfg, nil
}

// key returns the tape-sharing key for a configuration: the legacy default
// key when no overrides were given, else a key derived from the canonical
// JSON of the merged config (identical overrides share, different ones
// don't — and neither collides with the default).
func (e condEntry) key(cfg any, hadOverrides bool) string {
	if !hadOverrides {
		return e.defaultKey
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("runspec: cond %s config does not marshal: %v", e.name, err))
	}
	return e.name + "/" + string(b)
}

// condOrder lists substrates in registration order (for -list); the map
// serves lookups only.
var (
	condOrder    []string
	condRegistry = map[string]condEntry{}
)

func registerCond(e condEntry) {
	if _, dup := condRegistry[e.name]; dup {
		panic(fmt.Sprintf("runspec: duplicate cond substrate %q", e.name))
	}
	condRegistry[e.name] = e
	condOrder = append(condOrder, e.name)
}

func lookupCond(name string) (condEntry, bool) {
	e, ok := condRegistry[name]
	return e, ok
}

func condNameOrDefault(name string) string {
	if name == "" {
		return "hashed-perceptron"
	}
	return name
}

// CondNames lists the conditional substrates in registration order.
func CondNames() []string {
	out := make([]string, len(condOrder))
	copy(out, condOrder)
	return out
}

// CondEntryInfo describes one substrate for -list output.
type CondEntryInfo struct {
	Name        string
	Doc         string
	DefaultJSON []byte
}

// CondEntries describes the registered substrates in registration order.
func CondEntries() []CondEntryInfo {
	out := make([]CondEntryInfo, 0, len(condOrder))
	for _, n := range condOrder {
		e := condRegistry[n]
		b, err := json.Marshal(e.def())
		if err != nil {
			panic(fmt.Sprintf("runspec: cond %s default config does not marshal: %v", n, err))
		}
		out = append(out, CondEntryInfo{Name: n, Doc: e.doc, DefaultJSON: b})
	}
	return out
}

func init() {
	registerCond(condEntry{
		name:       "hashed-perceptron",
		doc:        "Tarjan & Skadron hashed perceptron (the harness default)",
		defaultKey: experiments.CondKeyHP,
		def:        func() any { return cond.DefaultHPConfig() },
		build: func(cfg any) (cond.Predictor, error) {
			c, ok := cfg.(cond.HPConfig)
			if !ok {
				return nil, fmt.Errorf("runspec: hashed-perceptron config has type %T", cfg)
			}
			return cond.NewHashedPerceptron(c), nil
		},
	})
	registerCond(condEntry{
		name:       "tage",
		doc:        "Seznec TAGE (pairs with ittage as the COTTAGE configuration)",
		defaultKey: experiments.CondKeyTAGE,
		def:        func() any { return cond.DefaultTAGEConfig() },
		build: func(cfg any) (cond.Predictor, error) {
			c, ok := cfg.(cond.TAGEConfig)
			if !ok {
				return nil, fmt.Errorf("runspec: tage config has type %T", cfg)
			}
			return cond.NewTAGE(c), nil
		},
	})
}
