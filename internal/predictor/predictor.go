// Package predictor defines the interface all indirect branch target
// predictors implement, plus a configurable registry used by the
// command-line tools and the runspec plan layer: every predictor registers
// a default configuration and a config-taking factory, and configurations
// round-trip through JSON so experiments can be expressed as data.
package predictor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"

	"blbp/internal/cond"
	"blbp/internal/trace"
)

// Indirect is a target predictor for indirect jumps and calls.
//
// The simulation engine's per-branch contract is: for every indirect branch
// it calls Predict(pc) and then immediately Update(pc, actual) with no
// intervening calls, so implementations may cache prediction-time state
// keyed by pc. Conditional outcomes arrive through OnCond and remaining
// control transfers through OnOther, in program order.
type Indirect interface {
	// Name identifies the predictor in reports.
	Name() string
	// Predict returns the predicted target, or ok=false when the predictor
	// has no basis for a prediction (e.g. a compulsory target-buffer miss);
	// the engine counts that as a misprediction.
	Predict(pc uint64) (target uint64, ok bool)
	// Update trains the predictor with the resolved target.
	Update(pc uint64, actual uint64)
	// OnCond observes a conditional branch outcome.
	OnCond(pc uint64, taken bool)
	// OnOther observes non-conditional, non-indirect control transfers
	// (direct jumps/calls and returns).
	OnOther(pc, target uint64, bt trace.BranchType)
	// StorageBits returns the modeled hardware budget in bits.
	StorageBits() int
}

// SpanFeeder is an optional fast path for columnar replay: a predictor that
// implements it consumes a whole same-class run of records through one call
// instead of one interface call per record. Implementations must be
// observably identical to calling OnCond (respectively OnOther) once per
// record in [start, end) in index order — sim.Tape feeds spans only on the
// shared-conditional replay path, where bit-identical results are the
// contract.
type SpanFeeder interface {
	// OnCondSpan observes records [start, end) of a conditional segment.
	OnCondSpan(c *trace.Columns, start, end int)
	// OnOtherSpan observes records [start, end) of a direct-jump, direct-
	// call, or return segment of type bt.
	OnOtherSpan(c *trace.Columns, start, end int, bt trace.BranchType)
}

// Snapshotter is the optional warm-state persistence interface: a predictor
// implementing it can serialize its trained state as a BLBPSNP1 snapshot
// (internal/snapshot) and reinstate it into a fresh instance built from the
// same configuration. The differential contract is strict: after
// EncodeState on a trained predictor and RestoreState into an identically
// configured one, every subsequent Predict/Update/OnCond sequence must be
// bit-identical between the two. Conditional predictors (cond.Predictor)
// and indirect predictors alike may implement it; use AsSnapshotter to
// probe a built instance.
type Snapshotter interface {
	// EncodeState writes the predictor's trained state to w. It must not
	// perturb the predictor (lazy state may be flushed, but only in ways
	// no later call can observe).
	EncodeState(w io.Writer) error
	// RestoreState reinstates state written by EncodeState on a predictor
	// of the same type and configuration. On error (corrupt, truncated, or
	// mismatched snapshot) the receiver's state is unspecified: discard it
	// or reset it before reuse.
	RestoreState(r io.Reader) error
}

// AsSnapshotter reports whether a built predictor instance (indirect or
// conditional) supports warm-state snapshots, unwrapping nothing: the
// instance itself must implement Snapshotter.
func AsSnapshotter(v any) (Snapshotter, bool) {
	s, ok := v.(Snapshotter)
	return s, ok
}

// Entry describes one registered predictor: its default configuration and
// how to build an instance from a configuration value. Exactly one of the
// three constructors is set, depending on how the predictor relates to the
// engine's conditional predictor:
//
//   - New: a standalone indirect predictor (the common case).
//   - NewBound: a predictor that must share the engine's conditional
//     predictor (VPC, whose defining property is stealing the conditional
//     predictor's tables for virtual PCs).
//   - NewProvider: a consolidated predictor that itself serves as the
//     engine's conditional predictor and exposes an indirect view (the
//     paper's §6 combined structure).
type Entry struct {
	// Name is the registry key referenced by CLIs and run plans, and the
	// name a built instance reports in results (Indirect.Name()).
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Default returns the default configuration value (a plain struct
	// that round-trips through JSON).
	Default func() any

	New         func(cfg any) (Indirect, error)
	NewBound    func(cfg any, cp cond.Predictor) (Indirect, error)
	NewProvider func(cfg any) (cond.Predictor, Indirect, error)
}

// Kind reports how the predictor relates to the engine's conditional
// predictor: "standalone", "cond-bound", or "consolidated".
func (e Entry) Kind() string {
	switch {
	case e.NewBound != nil:
		return "cond-bound"
	case e.NewProvider != nil:
		return "consolidated"
	default:
		return "standalone"
	}
}

// Config materializes a configuration for this predictor: the default
// config with the JSON object overrides (if any) merged field-for-field on
// top. Unknown fields are rejected, so typos in plan files fail loudly.
func (e Entry) Config(overrides []byte) (any, error) {
	cfg, err := MergeJSON(e.Default(), overrides)
	if err != nil {
		return nil, fmt.Errorf("predictor: %s config: %v", e.Name, err)
	}
	return cfg, nil
}

// MergeJSON merges a JSON object of overrides field-for-field onto a copy
// of the default config value def and returns the result (nested structs
// merge per present field; slices replace wholesale — encoding/json's
// unmarshal-into-populated-value semantics). Unknown fields and trailing
// data are rejected. If the merged config has a Validate method, it runs.
func MergeJSON(def any, overrides []byte) (any, error) {
	pv := reflect.New(reflect.TypeOf(def))
	pv.Elem().Set(reflect.ValueOf(def))
	if len(bytes.TrimSpace(overrides)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(overrides))
		dec.DisallowUnknownFields()
		if err := dec.Decode(pv.Interface()); err != nil {
			return nil, err
		}
		if dec.More() {
			return nil, fmt.Errorf("trailing data after JSON object")
		}
	}
	cfg := pv.Elem().Interface()
	if v, ok := cfg.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

// DefaultJSON returns the default configuration as compact JSON.
func (e Entry) DefaultJSON() []byte {
	b, err := json.Marshal(e.Default())
	if err != nil {
		panic(fmt.Sprintf("predictor: %s default config does not marshal: %v", e.Name, err))
	}
	return b
}

var registry = map[string]Entry{}

// Register adds a predictor entry. It panics on duplicates or malformed
// entries, which indicate init-time programming errors.
func Register(e Entry) {
	if e.Name == "" || e.Default == nil {
		panic("predictor: entry needs a name and a default config")
	}
	n := 0
	for _, set := range []bool{e.New != nil, e.NewBound != nil, e.NewProvider != nil} {
		if set {
			n++
		}
	}
	if n != 1 {
		panic(fmt.Sprintf("predictor: entry %q must set exactly one constructor", e.Name))
	}
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("predictor: duplicate registration of %q", e.Name))
	}
	registry[e.Name] = e
}

// Lookup returns the entry registered under name.
func Lookup(name string) (Entry, bool) {
	e, ok := registry[name]
	return e, ok
}

// New instantiates a registered standalone predictor by name with its
// default configuration.
func New(name string) (Indirect, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("predictor: unknown predictor %q (have %s; `experiments -list` or `blbpsim -list` shows each with its default-config JSON)",
			name, strings.Join(Names(), ", "))
	}
	if e.New == nil {
		return nil, fmt.Errorf("predictor: %q is %s and cannot be built in isolation from the engine's conditional predictor", name, e.Kind())
	}
	cfg, err := e.Config(nil)
	if err != nil {
		return nil, err
	}
	return e.New(cfg)
}

// Names lists the registered predictor names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Entries returns all registry entries sorted by name.
func Entries() []Entry {
	names := Names()
	es := make([]Entry, len(names))
	for i, n := range names {
		es[i] = registry[n]
	}
	return es
}
