package wspec

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"

	"blbp/internal/trace"
	"blbp/internal/workload"
)

// Compile lowers a validated spec to the workload.Spec the execution
// layers consume. The compiled spec's fingerprint hashes the canonicalized
// generator tree (workload.CanonParams composition), so two specs that
// differ only in parameters get distinct cache identities. Replay specs
// read the recorded file's header here — a missing or corrupt file fails
// at compile, not mid-run.
func Compile(ws WorkloadSpec) (workload.Spec, error) {
	if err := ws.Validate(); err != nil {
		return workload.Spec{}, err
	}
	seed := workload.SeedFor(ws.Name)
	if ws.Seed != nil {
		seed = *ws.Seed
	}
	if ws.Generator.Kind == "replay" {
		return compileReplay(ws, seed)
	}
	canon, factory, err := compileNode(&ws.Generator)
	if err != nil {
		return workload.Spec{}, fmt.Errorf("wspec: spec %q: %v", ws.Name, err)
	}
	return workload.NewSpec(ws.Name, ws.Category, seed, ws.Instructions,
		workload.FingerprintCanon(canon), factory), nil
}

// MustCompile is Compile for specs proven valid (the built-in suites).
func MustCompile(ws WorkloadSpec) workload.Spec {
	s, err := Compile(ws)
	if err != nil {
		panic(err)
	}
	return s
}

// compileNode lowers one generator-tree node to its canonical string and
// model factory. The factory consumes the build rng exactly as the former
// closure suite did: leaf models construct from the shared rng in tree
// order, then step with it — per-part seeds are the one deviation, binding
// a private rng instead.
func compileNode(n *Node) (string, func(*rand.Rand) workload.Model, error) {
	switch n.Kind {
	case "mixed":
		canons := make([]string, 0, len(n.Parts)+1)
		canons = append(canons, fmt.Sprintf("mixed|random=%t", n.Random))
		factories := make([]func(*rand.Rand) workload.Model, len(n.Parts))
		weights := make([]int, len(n.Parts))
		seeds := make([]*int64, len(n.Parts))
		for i := range n.Parts {
			p := &n.Parts[i]
			childCanon, childFactory, err := compileNode(&p.Generator)
			if err != nil {
				return "", nil, err
			}
			seedTag := "-"
			if p.Seed != nil {
				seedTag = fmt.Sprintf("%d", *p.Seed)
			}
			canons = append(canons, fmt.Sprintf("part:%d@%s{%s}", p.Weight, seedTag, childCanon))
			factories[i], weights[i], seeds[i] = childFactory, p.Weight, p.Seed
		}
		random := n.Random
		factory := func(rng *rand.Rand) workload.Model {
			models := make([]workload.Model, len(factories))
			for i, f := range factories {
				if seeds[i] != nil {
					prng := rand.New(rand.NewSource(*seeds[i]))
					models[i] = workload.WithRng(f(prng), prng)
				} else {
					models[i] = f(rng)
				}
			}
			return workload.NewMixed(models, weights, random)
		}
		return strings.Join(canons, "|"), factory, nil
	case "phases":
		canons := make([]string, 0, len(n.Phases)+1)
		canons = append(canons, "phases")
		factories := make([]func(*rand.Rand) workload.Model, len(n.Phases))
		untils := make([]int64, len(n.Phases))
		for i := range n.Phases {
			ph := &n.Phases[i]
			childCanon, childFactory, err := compileNode(&ph.Generator)
			if err != nil {
				return "", nil, err
			}
			canons = append(canons, fmt.Sprintf("phase:%d{%s}", ph.Until, childCanon))
			factories[i], untils[i] = childFactory, ph.Until
		}
		factory := func(rng *rand.Rand) workload.Model {
			phases := make([]workload.Phase, len(factories))
			for i, f := range factories {
				phases[i] = workload.Phase{Until: untils[i], Model: f(rng)}
			}
			return workload.NewPhases(phases)
		}
		return strings.Join(canons, "|"), factory, nil
	default: // a validated leaf kind
		params, err := decodeLeafParams(n.Kind, n.Params)
		if err != nil {
			return "", nil, err
		}
		canon := workload.CanonParams(n.Kind, params)
		if len(n.Draw) == 0 {
			factory := func(rng *rand.Rand) workload.Model { return params.New(rng) }
			return canon, factory, nil
		}
		fields := sortedDrawFields(n.Draw)
		tags := make([]string, len(fields))
		for i, name := range fields {
			r := n.Draw[name]
			tags[i] = fmt.Sprintf("%s=%g..%g", name, r.Min, r.Max)
		}
		draw := n.Draw
		factory := func(rng *rand.Rand) workload.Model {
			return applyDraws(params, fields, draw, rng).New(rng)
		}
		return canon + "|draw:" + strings.Join(tags, ","), factory, nil
	}
}

// applyDraws copies the parameter struct and overwrites each drawn field
// with a value from the rng: integers uniformly from the integral range,
// floats uniformly from the interval. Fields apply in sorted-name order so
// rng consumption is deterministic.
func applyDraws(params factoryParams, fields []string, draw map[string]Range, rng *rand.Rand) factoryParams {
	pv := reflect.New(reflect.TypeOf(params)).Elem()
	pv.Set(reflect.ValueOf(params))
	for _, name := range fields {
		r := draw[name]
		f := pv.FieldByName(name)
		switch f.Kind() {
		case reflect.Int:
			lo, hi := int64(r.Min), int64(r.Max)
			f.SetInt(lo + rng.Int63n(hi-lo+1))
		case reflect.Float64:
			f.SetFloat(r.Min + rng.Float64()*(r.Max-r.Min))
		}
	}
	return pv.Interface().(factoryParams)
}

// compileReplay lowers a replay spec: the recorded file's header supplies
// the instruction budget and the fingerprint's source identity, and the
// returned spec decodes the file on build (re-verifying its checksums),
// renaming the columns to the spec. The source may be any SPL3 file: a
// trace cache spill or a tracegen gen output. A build whose file no longer
// carries the compile-time header panics, as a decode error does: the
// spec's identity was derived from that header, so serving another trace
// under it would let the trace cache key and spill it under the wrong
// identity.
func compileReplay(ws WorkloadSpec, seed int64) (workload.Spec, error) {
	path := ws.Generator.Path
	h, err := readHeader(path)
	if err != nil {
		return workload.Spec{}, fmt.Errorf("wspec: spec %q: reading replay source %s: %v", ws.Name, path, err)
	}
	canon := fmt.Sprintf("replay|%s|%d|%d|%d|%016x", h.Name, h.Seed, h.Instructions, h.Records, h.Fingerprint)
	name := ws.Name
	load := func() *trace.Columns {
		f, err := os.Open(path)
		if err != nil {
			panic(fmt.Sprintf("wspec: replaying %s: %v", path, err))
		}
		defer f.Close()
		got, cols, err := trace.ReadSpillColumns(f)
		if err != nil {
			panic(fmt.Sprintf("wspec: replaying %s: %v", path, err))
		}
		if got != h {
			panic(fmt.Sprintf("wspec: replaying %s: the file holds %s, but the spec was compiled against %s",
				path, headerString(got), headerString(h)))
		}
		cols.Name = name
		return cols
	}
	return workload.NewReplaySpec(ws.Name, ws.Category, seed, h.Instructions,
		workload.FingerprintCanon(canon), load), nil
}

// headerString spells out the identity and record count a replay source's
// header declares.
func headerString(h trace.SpillHeader) string {
	return fmt.Sprintf("%s/%d/%d/%016x with %d records", h.Name, h.Seed, h.Instructions, h.Fingerprint, h.Records)
}

func readHeader(path string) (trace.SpillHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.SpillHeader{}, err
	}
	defer f.Close()
	return trace.ReadSpillHeader(f)
}

// factoryParams is the common shape of the six parameter structs: each
// constructs its model from the build rng.
type factoryParams interface {
	New(rng *rand.Rand) workload.Model
}

// decodeLeafParams strictly decodes a leaf node's parameters into the
// kind's exported parameter struct. Nil params mean all-defaults, exactly
// as a zero struct passed to Leaf.
func decodeLeafParams(kind string, raw json.RawMessage) (factoryParams, error) {
	decode := func(dst any) error {
		if len(raw) == 0 {
			return nil
		}
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(dst); err != nil {
			return fmt.Errorf("%s params: %v", kind, err)
		}
		if dec.More() {
			return fmt.Errorf("%s params: trailing data", kind)
		}
		return nil
	}
	switch kind {
	case "interpreter":
		var p workload.InterpreterParams
		err := decode(&p)
		return p, err
	case "vdispatch":
		var p workload.VDispatchParams
		err := decode(&p)
		return p, err
	case "switcher":
		var p workload.SwitcherParams
		err := decode(&p)
		return p, err
	case "callbacks":
		var p workload.CallbacksParams
		err := decode(&p)
		return p, err
	case "mono":
		var p workload.MonoParams
		err := decode(&p)
		return p, err
	case "recursive":
		var p workload.RecursiveParams
		err := decode(&p)
		return p, err
	}
	return nil, fmt.Errorf("unknown generator kind %q", kind)
}

// paramsBank extracts the Bank field every parameter struct carries.
func paramsBank(params factoryParams) int {
	return int(reflect.ValueOf(params).FieldByName("Bank").Int())
}
