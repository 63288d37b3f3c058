package wspec

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// validSpec is a minimal correct spec used as the mutation base for the
// validation-error table.
const validSpec = `{
  "name": "demo",
  "instructions": 10000,
  "generator": {"kind": "interpreter", "params": {"Opcodes": 16, "ProgramLen": 40}}
}`

func TestDecodeValidSpec(t *testing.T) {
	ws, err := Decode([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Name != "demo" || ws.Generator.Kind != "interpreter" {
		t.Errorf("decoded spec = %+v", ws)
	}
	if ws.Seed != nil {
		t.Error("unset seed should decode to nil (name-derived)")
	}
}

// TestValidationErrors pins the exact diagnostics: specs are user-authored
// data, so the error text is part of the interface.
func TestValidationErrors(t *testing.T) {
	cases := []struct {
		label string
		in    string
		want  string
	}{
		{"no name", `{"instructions": 100, "generator": {"kind": "mono"}}`,
			`wspec: spec needs a name`},
		{"no instructions", `{"name": "x", "generator": {"kind": "mono"}}`,
			`wspec: spec "x": instructions must be positive`},
		{"no kind", `{"name": "x", "instructions": 100, "generator": {}}`,
			`wspec: spec "x": generator: generator needs a kind (want callbacks, interpreter, mixed, mono, phases, recursive, replay, switcher, vdispatch)`},
		{"unknown kind", `{"name": "x", "instructions": 100, "generator": {"kind": "quantum"}}`,
			`wspec: spec "x": generator: unknown generator kind "quantum" (want callbacks, interpreter, mixed, mono, phases, recursive, replay, switcher, vdispatch)`},
		{"unknown field", `{"name": "x", "instructions": 100, "generator": {"kind": "mono"}, "extra": 1}`,
			`wspec: json: unknown field "extra"`},
		{"unknown param", `{"name": "x", "instructions": 100, "generator": {"kind": "mono", "params": {"Sitez": 4}}}`,
			`wspec: spec "x": generator: mono params: json: unknown field "Sitez"`},
		{"bank out of range", `{"name": "x", "instructions": 100, "generator": {"kind": "mono", "params": {"Bank": 64}}}`,
			`wspec: spec "x": generator: bank 64 out of range [0, 64)`},
		{"parts on a leaf", `{"name": "x", "instructions": 100, "generator": {"kind": "mono", "parts": [{"weight": 1, "generator": {"kind": "mono"}}]}}`,
			`wspec: spec "x": generator: "parts" applies to kind "mixed" only`},
		{"random on a leaf", `{"name": "x", "instructions": 100, "generator": {"kind": "mono", "random": true}}`,
			`wspec: spec "x": generator: "random" applies to kind "mixed" only`},
		{"params on mixed", `{"name": "x", "instructions": 100, "generator": {"kind": "mixed", "params": {"Sites": 4}, "parts": [{"weight": 1, "generator": {"kind": "mono"}}]}}`,
			`wspec: spec "x": generator: "params" applies to generator kinds only`},
		{"empty mixed", `{"name": "x", "instructions": 100, "generator": {"kind": "mixed"}}`,
			`wspec: spec "x": generator: mixed needs at least one part`},
		{"zero weight", `{"name": "x", "instructions": 100, "generator": {"kind": "mixed", "parts": [{"weight": 0, "generator": {"kind": "mono"}}]}}`,
			`wspec: spec "x": generator: mixed part 0: weight must be positive`},
		{"bad nested part", `{"name": "x", "instructions": 100, "generator": {"kind": "mixed", "parts": [{"weight": 1, "generator": {"kind": "nope"}}]}}`,
			`wspec: spec "x": generator: mixed part 0: unknown generator kind "nope" (want callbacks, interpreter, mixed, mono, phases, recursive, replay, switcher, vdispatch)`},
		{"empty phases", `{"name": "x", "instructions": 100, "generator": {"kind": "phases"}}`,
			`wspec: spec "x": generator: phases needs at least one phase`},
		{"mid phase open-ended", `{"name": "x", "instructions": 100, "generator": {"kind": "phases", "phases": [{"generator": {"kind": "mono"}}, {"until": 50, "generator": {"kind": "mono"}}]}}`,
			`wspec: spec "x": generator: phase 0: boundary must be positive (only the last phase may run to the end)`},
		{"non-increasing boundary", `{"name": "x", "instructions": 100, "generator": {"kind": "phases", "phases": [{"until": 50, "generator": {"kind": "mono", "params": {"Sites": 4}}}, {"until": 50, "generator": {"kind": "mono"}}]}}`,
			`wspec: spec "x": generator: phase 1: boundary 50 not after previous 50`},
		{"boundary past budget", `{"name": "x", "instructions": 100, "generator": {"kind": "phases", "phases": [{"until": 100, "generator": {"kind": "mono"}}, {"generator": {"kind": "mono"}}]}}`,
			`wspec: spec "x": generator: phase 0: boundary 100 at or past the instruction budget 100`},
		{"nested replay", `{"name": "x", "instructions": 100, "generator": {"kind": "mixed", "parts": [{"weight": 1, "generator": {"kind": "replay", "path": "a.spill"}}]}}`,
			`wspec: spec "x": generator: mixed part 0: replay cannot be nested`},
		{"replay with budget", `{"name": "x", "instructions": 100, "generator": {"kind": "replay", "path": "a.spill"}}`,
			`wspec: spec "x": replay takes its instruction count from the recorded file; leave instructions 0`},
		{"replay without path", `{"name": "x", "generator": {"kind": "replay"}}`,
			`wspec: spec "x": generator: replay needs a path`},
		{"path on a leaf", `{"name": "x", "instructions": 100, "generator": {"kind": "mono", "path": "a.spill"}}`,
			`wspec: spec "x": generator: "path" applies to kind "replay" only`},
		{"draw unknown field", `{"name": "x", "instructions": 100, "generator": {"kind": "mono", "draw": {"Sitez": {"min": 1, "max": 2}}}}`,
			`wspec: spec "x": generator: draw names no mono parameter "Sitez"`},
		{"draw fractional int", `{"name": "x", "instructions": 100, "generator": {"kind": "mono", "draw": {"Sites": {"min": 1.5, "max": 2}}}}`,
			`wspec: spec "x": generator: draw range for "Sites" must have integral bounds`},
		{"draw inverted", `{"name": "x", "instructions": 100, "generator": {"kind": "mono", "draw": {"Sites": {"min": 9, "max": 2}}}}`,
			`wspec: spec "x": generator: draw range for "Sites" inverted (min 9 > max 2)`},
	}
	for _, tc := range cases {
		_, err := Decode([]byte(tc.in))
		if err == nil {
			t.Errorf("%s: decode succeeded, want error %q", tc.label, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s:\n got  %q\n want %q", tc.label, err.Error(), tc.want)
		}
	}
}

// mixOf returns the body of a mixed node of n weight-1 parts, each the
// generator node gen.
func mixOf(n int, gen string) string {
	parts := strings.Repeat(`{"weight": 1, "generator": `+gen+`}, `, n)
	return `"kind": "mixed", "parts": [` + strings.TrimSuffix(parts, ", ") + `]`
}

// vdispatchAtCap is a vdispatch node whose target table, Classes × Sites,
// is the largest one leaf may allocate: 4,096², 128 MiB of targets.
const vdispatchAtCap = `{"kind": "vdispatch", "params": {"Classes": 4096, "Sites": 4096, "Objects": 9}}`

// smallVDispatch is a vdispatch node of 64 × 64 = 4,096 table entries.
const smallVDispatch = `{"kind": "vdispatch", "params": {"Classes": 64, "Sites": 64, "Objects": 9}}`

// TestValidateRejectsBuildPanics pins Validate's check of each precondition
// a generator constructor enforces by panicking, for a static parameter and
// for a draw range that can produce a failing value, plus a random mix's
// weight sum, a drawn bank, a callbacks Skew, the size cap and the spec's
// total table size. Every spec here used to pass validation; all but the
// drawn bank could then panic in Build, a Skew above 2^53 never finished
// it, a size of 10^9 made Build allocate tens of gigabytes, and the
// 100-part mix at the size cap about 12.5 GiB.
func TestValidateRejectsBuildPanics(t *testing.T) {
	const at = `wspec: spec "x": generator: `
	cases := []struct {
		label, node, want string
	}{
		{"interpreter Opcodes", `"kind": "interpreter", "params": {"Opcodes": 0, "ProgramLen": 40}`,
			`interpreter parameter "Opcodes" is 0, below its minimum 1`},
		{"interpreter Opcodes drawn", `"kind": "interpreter", "params": {"ProgramLen": 40}, "draw": {"Opcodes": {"min": -5, "max": 0}}`,
			`interpreter draw range for "Opcodes" starts at -5, below its minimum 1`},
		{"interpreter ProgramLen", `"kind": "interpreter", "params": {"Opcodes": 8}`,
			`interpreter parameter "ProgramLen" is 0, below its minimum 1`},
		{"interpreter ProgramLen drawn", `"kind": "interpreter", "params": {"Opcodes": 8}, "draw": {"ProgramLen": {"min": 0, "max": 9}}`,
			`interpreter draw range for "ProgramLen" starts at 0, below its minimum 1`},
		{"interpreter negative", `"kind": "interpreter", "params": {"Opcodes": 8, "ProgramLen": 40, "CondPerHandler": -1}`,
			`interpreter parameter "CondPerHandler" is -1, below its minimum 0`},
		{"vdispatch Classes", `"kind": "vdispatch", "params": {"Sites": 2, "Objects": 9}`,
			`vdispatch parameter "Classes" is 0, below its minimum 1`},
		{"vdispatch Sites drawn", `"kind": "vdispatch", "params": {"Classes": 2, "Objects": 9}, "draw": {"Sites": {"min": 0, "max": 3}}`,
			`vdispatch draw range for "Sites" starts at 0, below its minimum 1`},
		{"vdispatch Objects", `"kind": "vdispatch", "params": {"Classes": 2, "Sites": 2}`,
			`vdispatch parameter "Objects" is 0, below its minimum 1`},
		{"vdispatch negative", `"kind": "vdispatch", "params": {"Classes": 2, "Sites": 2, "Objects": 9, "MonoSites": -1}`,
			`vdispatch parameter "MonoSites" is -1, below its minimum 0`},
		{"vdispatch negative drawn", `"kind": "vdispatch", "params": {"Classes": 2, "Sites": 2, "Objects": 9}, "draw": {"AlternatingSites": {"min": -2, "max": 2}}`,
			`vdispatch draw range for "AlternatingSites" starts at -2, below its minimum 0`},
		{"switcher Tokens", `"kind": "switcher", "params": {"Tokens": 1}`,
			`switcher parameter "Tokens" is 1, below its minimum 2`},
		{"switcher Tokens drawn", `"kind": "switcher", "draw": {"Tokens": {"min": 1, "max": 4}}`,
			`switcher draw range for "Tokens" starts at 1, below its minimum 2`},
		{"callbacks Events", `"kind": "callbacks"`,
			`callbacks parameter "Events" is 0, below its minimum 1`},
		{"callbacks negative drawn", `"kind": "callbacks", "params": {"Events": 4}, "draw": {"Wrappers": {"min": -1, "max": 1}}`,
			`callbacks draw range for "Wrappers" starts at -1, below its minimum 0`},
		{"mono Sites", `"kind": "mono"`,
			`mono parameter "Sites" is 0, below its minimum 1`},
		{"mono Sites drawn", `"kind": "mono", "draw": {"Sites": {"min": 0, "max": 3}}`,
			`mono draw range for "Sites" starts at 0, below its minimum 1`},
		{"recursive MinDepth", `"kind": "recursive", "params": {"MaxDepth": 4}`,
			`recursive parameter "MinDepth" is 0, below its minimum 1`},
		{"recursive MaxDepth drawn", `"kind": "recursive", "params": {"MinDepth": 1}, "draw": {"MaxDepth": {"min": 0, "max": 4}}`,
			`recursive draw range for "MaxDepth" starts at 0, below its minimum 1`},
		{"recursive depths", `"kind": "recursive", "params": {"MinDepth": 3, "MaxDepth": 2}`,
			`recursive needs MinDepth <= MaxDepth, but MinDepth can be 3 and MaxDepth 2`},
		{"recursive depths drawn", `"kind": "recursive", "params": {"MaxDepth": 4}, "draw": {"MinDepth": {"min": 2, "max": 6}}`,
			`recursive needs MinDepth <= MaxDepth, but MinDepth can be 6 and MaxDepth 4`},
		{"recursive depths both drawn", `"kind": "recursive", "draw": {"MinDepth": {"min": 1, "max": 5}, "MaxDepth": {"min": 3, "max": 9}}`,
			`recursive needs MinDepth <= MaxDepth, but MinDepth can be 5 and MaxDepth 3`},
		{"mixed weight sum", `"kind": "mixed", "random": true, "parts": [{"weight": 4611686018427387904, "generator": {"kind": "mono", "params": {"Sites": 4}}}, {"weight": 4611686018427387904, "generator": {"kind": "mono", "params": {"Sites": 4}}}]`,
			`mixed part 1: weights overflow their sum`},
		{"bank drawn", `"kind": "mono", "params": {"Sites": 4}, "draw": {"Bank": {"min": 60, "max": 64}}`,
			`draw range for "Bank" ends at 64, out of range [0, 64)`},
		{"callbacks Skew", `"kind": "callbacks", "params": {"Events": 4, "Skew": 1e300}`,
			`callbacks parameter "Skew" is 1e+300, above its maximum 64`},
		{"callbacks Skew drawn", `"kind": "callbacks", "params": {"Events": 4}, "draw": {"Skew": {"min": 2, "max": 1e17}}`,
			`callbacks draw range for "Skew" ends at 1e+17, above its maximum 64`},
		{"interpreter Opcodes above cap", `"kind": "interpreter", "params": {"Opcodes": 1000000000, "ProgramLen": 40}`,
			`interpreter parameter "Opcodes" is 1000000000, above its maximum 4096`},
		{"vdispatch Sites drawn above cap", `"kind": "vdispatch", "params": {"Classes": 2, "Objects": 9}, "draw": {"Sites": {"min": 1, "max": 1e9}}`,
			`vdispatch draw range for "Sites" ends at 1000000000, above its maximum 4096`},
		{"mix of 100 parts at the cap", mixOf(100, vdispatchAtCap),
			`its leaves' tables total 1677721600 entries, above the maximum 16777216`},
		{"phases of many small parts", `"kind": "phases", "phases": [{"until": 500, "generator": {` + mixOf(2048, smallVDispatch) + `}}, {"generator": {` + mixOf(2049, smallVDispatch) + `}}]`,
			`its leaves' tables total 16781312 entries, above the maximum 16777216`},
		{"interpreter tables drawn", `"kind": "mixed", "parts": [{"weight": 1, "generator": {"kind": "interpreter", "params": {"Opcodes": 4096, "ProgramLen": 40}, "draw": {"CondPerHandler": {"min": 0, "max": 4096}}}}, {"weight": 1, "generator": {"kind": "mono", "params": {"Sites": 1}}}]`,
			`its leaves' tables total 16777217 entries, above the maximum 16777216`},
	}
	for _, tc := range cases {
		in := `{"name": "x", "instructions": 1000, "generator": {` + tc.node + `}}`
		if _, err := Decode([]byte(in)); err == nil || err.Error() != at+tc.want {
			t.Errorf("%s: Decode error\n got  %v\n want %q", tc.label, err, at+tc.want)
		}
	}
	// The total may reach one leaf's maximum exactly, in one leaf or many.
	for _, node := range []string{vdispatchAtCap[1 : len(vdispatchAtCap)-1], mixOf(4096, smallVDispatch)} {
		in := `{"name": "x", "instructions": 1000, "generator": {` + node + `}}`
		if _, err := Decode([]byte(in)); err != nil {
			t.Errorf("a spec of 4,096² table entries rejected: %v", err)
		}
	}
}

func TestDecodeAllArrayAndObject(t *testing.T) {
	one, err := DecodeAll([]byte(validSpec))
	if err != nil || len(one) != 1 {
		t.Fatalf("single-object DecodeAll = %d specs, %v", len(one), err)
	}
	arr := "[" + validSpec + "," + strings.Replace(validSpec, `"demo"`, `"demo2"`, 1) + "]"
	two, err := DecodeAll([]byte(arr))
	if err != nil || len(two) != 2 {
		t.Fatalf("array DecodeAll = %d specs, %v", len(two), err)
	}
	bad := "[" + validSpec + "," + strings.Replace(validSpec, `"name": "demo"`, `"name": ""`, 1) + "]"
	_, err = DecodeAll([]byte(bad))
	want := "wspec: spec 2 of 2: wspec: spec needs a name"
	if err == nil || err.Error() != want {
		t.Errorf("bad array error = %v, want %q", err, want)
	}
}

func TestEncodeDecodeFixedPoint(t *testing.T) {
	ws, err := Decode([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := ws.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(enc1)
	if err != nil {
		t.Fatalf("decode of own encoding: %v", err)
	}
	enc2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Errorf("encode not a fixed point:\n%s\nvs\n%s", enc1, enc2)
	}
}

// fuzzSized reports whether every numeric parameter, draw bound and mix
// weight in n's tree is at most maxSize, the cap Validate puts on integer
// parameters: FuzzWorkloadSpecDecode builds only such specs.
func fuzzSized(n *Node) bool {
	for _, r := range n.Draw {
		if r.Min > maxSize || r.Max > maxSize {
			return false
		}
	}
	if params, err := decodeLeafParams(n.Kind, n.Params); err == nil {
		pv := reflect.ValueOf(params)
		for i := 0; i < pv.NumField(); i++ {
			f := pv.Field(i)
			if f.Kind() == reflect.Int && f.Int() > maxSize || f.Kind() == reflect.Float64 && f.Float() > maxSize {
				return false
			}
		}
	}
	for i := range n.Parts {
		if n.Parts[i].Weight > maxSize || !fuzzSized(&n.Parts[i].Generator) {
			return false
		}
	}
	for i := range n.Phases {
		if !fuzzSized(&n.Phases[i].Generator) {
			return false
		}
	}
	return true
}

// FuzzWorkloadSpecDecode mirrors runspec's FuzzRunPlanDecode: whatever
// Decode accepts must validate, re-encode, and decode to a stable fixed
// point. An accepted generator spec of bounded sizes must also build: the
// target compiles it, caps its budget at 2,000 instructions, and fails if
// Build panics.
func FuzzWorkloadSpecDecode(f *testing.F) {
	f.Add([]byte(validSpec))
	for _, ws := range append(SuiteSpecs(1_000, "s"), HoldoutSpecs(1_000)...) {
		if enc, err := ws.Encode(); err == nil {
			f.Add(enc)
		}
	}
	f.Add([]byte(`{"name": "p", "instructions": 500, "generator": {"kind": "phases", "phases": [
		{"until": 100, "generator": {"kind": "mono"}},
		{"generator": {"kind": "mixed", "parts": [
			{"weight": 3, "seed": 7, "generator": {"kind": "switcher", "draw": {"Tokens": {"min": 4, "max": 9}}}},
			{"weight": 1, "generator": {"kind": "callbacks"}}]}}]}}`))
	f.Add([]byte(`{"name": "m", "instructions": 100, "generator": {"kind": "mono"}}`))
	f.Add([]byte(`{"name": "p", "instructions": 500, "generator": {"kind": "phases", "phases": [
		{"until": 100, "generator": {"kind": "mono", "params": {"Sites": 3}}},
		{"generator": {"kind": "mixed", "parts": [
			{"weight": 3, "seed": 7, "generator": {"kind": "switcher", "draw": {"Tokens": {"min": 4, "max": 9}}}},
			{"weight": 1, "generator": {"kind": "recursive", "params": {"MinDepth": 2}, "draw": {"MaxDepth": {"min": 2, "max": 5}}}}]}}]}}`))
	f.Add([]byte(`{"name": "r", "generator": {"kind": "replay", "path": "x.spill"}}`))
	f.Add([]byte(`{"name": "z", "instructions": 100, "generator": {"kind": "callbacks", "params": {"Events": 4, "Skew": 1e300}}}`))
	f.Add([]byte(`{"name": "o", "instructions": 100, "generator": {"kind": "interpreter", "params": {"Opcodes": 1000000000, "ProgramLen": 40}}}`))
	f.Add([]byte(`{"name": "h", "instructions": 100, "generator": {` + mixOf(100, vdispatchAtCap) + `}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ws, err := Decode(data)
		if err != nil {
			return
		}
		if err := ws.Validate(); err != nil {
			t.Fatalf("decoded spec fails validation: %v", err)
		}
		enc1, err := ws.Encode()
		if err != nil {
			t.Fatalf("encoding decoded spec: %v", err)
		}
		back, err := Decode(enc1)
		if err != nil {
			t.Fatalf("re-decoding encoded spec: %v\n%s", err, enc1)
		}
		enc2, err := back.Encode()
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode not a fixed point:\n%s\nvs\n%s", enc1, enc2)
		}
		if ws.Generator.Kind == "replay" || !fuzzSized(&ws.Generator) {
			return
		}
		s, err := Compile(*ws)
		if err != nil {
			t.Fatalf("compiling a validated spec: %v", err)
		}
		s.Instructions = min(s.Instructions, 2_000)
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("building a validated spec panicked: %v\n%s", r, enc1)
			}
		}()
		s.Build()
	})
}
