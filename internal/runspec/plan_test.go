package runspec

import (
	"bytes"
	"strings"
	"testing"
)

// TestBuiltinPlansValidateAndRoundTrip is the -dumpplan contract: every
// built-in plan validates, encodes, decodes back, and re-encodes to the
// same bytes, so a dumped plan re-run via -plan is the same plan.
func TestBuiltinPlansValidateAndRoundTrip(t *testing.T) {
	for _, name := range BuiltinNames() {
		plan, ok := Builtin(name)
		if !ok {
			t.Fatalf("Builtin(%q) missing despite being listed", name)
		}
		if plan.Name != name {
			t.Errorf("Builtin(%q).Name = %q", name, plan.Name)
		}
		if plan.Doc == "" {
			t.Errorf("%s: built-in plan has no doc line", name)
		}
		if err := plan.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		enc, err := plan.Encode()
		if err != nil {
			t.Errorf("%s: encode: %v", name, err)
			continue
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Errorf("%s: decode of own encoding: %v", name, err)
			continue
		}
		enc2, err := dec.Encode()
		if err != nil {
			t.Errorf("%s: re-encode: %v", name, err)
			continue
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%s: encoding not stable across a decode round trip:\n%s\nvs\n%s", name, enc, enc2)
		}
	}
}

// TestBuiltinReturnsFreshPlans: callers (benchmarks, the CLI) mutate the
// returned plan, so Builtin must never hand out shared state.
func TestBuiltinReturnsFreshPlans(t *testing.T) {
	a, _ := Builtin("seeds")
	before, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	a.Suite.Salts = nil
	a.Passes = a.Passes[:1]
	a.Outputs[0].File = "clobbered"
	b, _ := Builtin("seeds")
	after, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("Builtin shares plan state across calls")
	}
}

func TestBuiltinUnknown(t *testing.T) {
	if _, ok := Builtin("no-such-plan"); ok {
		t.Error("Builtin accepted an unknown name")
	}
}

// TestDecodeRejects covers the validation surface: every malformed plan
// must fail with a diagnosable message, never decode silently.
func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"no name", `{"outputs":[{"table":"mpki"}]}`, "needs a name"},
		{"unknown top-level field", `{"name":"x","bogus":1,"outputs":[{"table":"mpki"}]}`, "unknown field"},
		{"trailing data", `{"name":"x","outputs":[{"table":"table1"}]} {}`, "trailing data"},
		{"unknown suite kind", `{"name":"x","suite":{"kind":"exotic"},"outputs":[{"table":"table1"}]}`, "unknown suite kind"},
		{"negative base", `{"name":"x","suite":{"base":-5},"outputs":[{"table":"table1"}]}`, "negative suite base"},
		{"holdout with salts", `{"name":"x","suite":{"kind":"holdout","salts":["a","b"]},"outputs":[{"table":"table1"}]}`, "standard suite only"},
		{"empty pass", `{"name":"x","passes":[{"predictors":[]}],"outputs":[{"table":"mpki"}]}`, "no predictors"},
		{"unknown cond", `{"name":"x","passes":[{"cond":"oracle","predictors":[{"type":"blbp"}]}],"outputs":[{"table":"mpki"}]}`, "unknown conditional substrate"},
		{"bad cond config", `{"name":"x","passes":[{"cond_config":{"Nope":1},"predictors":[{"type":"blbp"}]}],"outputs":[{"table":"mpki"}]}`, "unknown field"},
		{"tage without tables", `{"name":"x","passes":[{"cond":"tage","cond_config":{"Tables":0},"predictors":[{"type":"blbp"}]}],"outputs":[{"table":"mpki"}]}`, "Tables=0"},
		{"tage negative tag width", `{"name":"x","passes":[{"cond":"tage","cond_config":{"TagBitsMin":-3},"predictors":[{"type":"blbp"}]}],"outputs":[{"table":"mpki"}]}`, "TagBitsMin=-3"},
		{"hashed perceptron without entries", `{"name":"x","passes":[{"cond_config":{"TableEntries":0},"predictors":[{"type":"blbp"}]}],"outputs":[{"table":"mpki"}]}`, "TableEntries=0"},
		{"unknown predictor", `{"name":"x","passes":[{"predictors":[{"type":"psychic"}]}],"outputs":[{"table":"mpki"}]}`, "unknown type"},
		{"bad predictor config", `{"name":"x","passes":[{"predictors":[{"type":"blbp","config":{"Nope":1}}]}],"outputs":[{"table":"mpki"}]}`, "unknown field"},
		{"duplicate names", `{"name":"x","passes":[{"predictors":[{"type":"blbp"},{"type":"blbp"}]}],"outputs":[{"table":"mpki"}]}`, "duplicate predictor name"},
		{"consolidated with sibling", `{"name":"x","passes":[{"predictors":[{"type":"combined"},{"type":"blbp"}]}],"outputs":[{"table":"mpki"}]}`, "only predictor"},
		{"consolidated with cond", `{"name":"x","passes":[{"cond":"tage","predictors":[{"type":"combined"}]}],"outputs":[{"table":"mpki"}]}`, "provides the conditional predictor"},
		{"no outputs", `{"name":"x","passes":[{"predictors":[{"type":"blbp"}]}]}`, "no outputs"},
		{"unknown output", `{"name":"x","outputs":[{"table":"fig99"}]}`, "unknown output table"},
		{"output needs passes", `{"name":"x","outputs":[{"table":"mpki"}]}`, "needs simulation passes"},
		{"probe output multi-draw", `{"name":"x","suite":{"salts":["a","b"]},"passes":[{"predictors":[{"type":"blbp"}]}],"outputs":[{"table":"latency"}]}`, "single suite draw"},
		{"pathy file", `{"name":"x","passes":[{"predictors":[{"type":"blbp"}]}],"outputs":[{"table":"mpki","file":"../evil"}]}`, "bare name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.json))
			if err == nil {
				t.Fatalf("plan accepted: %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzRunPlanDecode: whatever bytes arrive, Decode must never panic, and
// anything it accepts must be a stable fixed point of Encode/Decode.
func FuzzRunPlanDecode(f *testing.F) {
	for _, name := range BuiltinNames() {
		plan, _ := Builtin(name)
		enc, err := plan.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(`{"name":"x","suite":{"kind":"holdout"},"passes":[{"cond":"tage","predictors":[{"type":"ittage"}]}],"outputs":[{"table":"mpki","file":"out"}]}`))
	f.Add([]byte(`{"name":"x","passes":[{"cond":"tage","cond_config":{"Tables":0},"predictors":[{"type":"blbp"}]}],"outputs":[{"table":"mpki"}]}`))
	f.Add([]byte(`{"name":"x","passes":[{"cond":"tage","cond_config":{"TagBitsMin":-3},"predictors":[{"type":"blbp"}]}],"outputs":[{"table":"mpki"}]}`))
	f.Add([]byte(`{"name":"x","passes":[{"cond_config":{"TableEntries":0},"predictors":[{"type":"blbp"}]}],"outputs":[{"table":"mpki"}]}`))
	f.Add([]byte(`{"name":"x","bogus":true}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Decode accepted a plan Validate rejects: %v", err)
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		p2, err := Decode(enc)
		if err != nil {
			t.Fatalf("encoding of accepted plan does not decode: %v", err)
		}
		enc2, err := p2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding unstable:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
