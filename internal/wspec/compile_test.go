package wspec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blbp/internal/trace"
)

func mustDecode(t *testing.T, in string) WorkloadSpec {
	t.Helper()
	ws, err := Decode([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	return *ws
}

// pcBank recovers the generator bank from a branch PC: function addresses
// are laid out at 0x40_0000 + bank<<24 + slot.
func pcBank(pc uint64) int { return int(pc >> 24) }

func TestCompileIsDeterministic(t *testing.T) {
	ws := mustDecode(t, `{"name": "det", "instructions": 20000, "generator": {"kind": "vdispatch",
		"params": {"Classes": 4, "Sites": 3, "Objects": 12, "MethodWork": 20},
		"draw": {"TypeNoise": {"min": 0.001, "max": 0.01}, "Sites": {"min": 2, "max": 6}}}}`)
	a, b := MustCompile(ws).Build(), MustCompile(ws).Build()
	if a.Len() == 0 || a.Len() != b.Len() {
		t.Fatalf("lengths %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Record(i) != b.Record(i) {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Record(i), b.Record(i))
		}
	}
}

func TestDrawChangesTraceAndFingerprint(t *testing.T) {
	base := `{"name": "drawn", "instructions": 20000, "generator": {"kind": "switcher",
		"params": {"Tokens": 8, "CaseWork": 25}%s}}`
	plain := MustCompile(mustDecode(t, strings.Replace(base, "%s", "", 1)))
	drawn := MustCompile(mustDecode(t, strings.Replace(base, "%s",
		`, "draw": {"Tokens": {"min": 20, "max": 40}}`, 1)))
	if plain.Fingerprint == drawn.Fingerprint {
		t.Error("draw did not change the fingerprint")
	}
	// The drawn Tokens (>= 20) must beat the plain 8: more distinct
	// dispatch targets in the trace.
	targets := func(c *trace.Columns) map[uint64]bool {
		m := map[uint64]bool{}
		for i := 0; i < c.Len(); i++ {
			if r := c.Record(i); r.Type == trace.IndirectJump {
				m[r.Target] = true
			}
		}
		return m
	}
	np, nd := len(targets(plain.Build())), len(targets(drawn.Build()))
	if nd <= np {
		t.Errorf("drawn spec has %d indirect-jump targets, plain has %d; draw seems unapplied", nd, np)
	}
}

// TestPerPartSeedIsolation: pinning a part's seed decouples its content
// from its siblings — changing a sibling's parameters must not change the
// seeded part's records. Inexpressible in the old closure API, where every
// part consumed the one shared build rng.
func TestPerPartSeedIsolation(t *testing.T) {
	const form = `{"name": "iso", "instructions": 30000, "generator": {"kind": "mixed", "parts": [
		{"weight": 1, "seed": 424242, "generator": {"kind": "mono", "params": {"Sites": 30, "Work": 10, "Bank": 0}}},
		{"weight": 1, "generator": {"kind": "interpreter", "params": {"Opcodes": %d, "ProgramLen": 40, "Work": 15, "Bank": 1}}}]}}`
	bank0 := func(in string) []trace.Record {
		c := MustCompile(mustDecode(t, in)).Build()
		var recs []trace.Record
		for i := 0; i < c.Len(); i++ {
			if r := c.Record(i); pcBank(r.PC) == 0 {
				r.InstrBefore = 0 // interleaving differs; compare content only
				recs = append(recs, r)
			}
		}
		return recs
	}
	a := bank0(strings.Replace(form, "%d", "12", 1))
	b := bank0(strings.Replace(form, "%d", "48", 1))
	if len(a) == 0 {
		t.Fatal("no bank-0 records")
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("seeded part's record %d changed when a sibling's params changed: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPhasesSwitchGenerators(t *testing.T) {
	ws := mustDecode(t, `{"name": "ph", "instructions": 40000, "generator": {"kind": "phases", "phases": [
		{"until": 20000, "generator": {"kind": "mono", "params": {"Sites": 10, "Work": 8, "Bank": 0}}},
		{"generator": {"kind": "mono", "params": {"Sites": 10, "Work": 8, "Bank": 1}}}]}}`)
	c := MustCompile(ws).Build()
	var instr, outOfPhase int64
	sawBank1 := false
	for i := 0; i < c.Len(); i++ {
		r := c.Record(i)
		instr += int64(r.InstrBefore) + 1
		switch {
		case instr < 20000 && pcBank(r.PC) == 1:
			outOfPhase++
		case instr >= 21000 && pcBank(r.PC) == 0:
			outOfPhase++
		case pcBank(r.PC) == 1:
			sawBank1 = true
		}
	}
	if !sawBank1 {
		t.Error("second phase's generator never ran")
	}
	if outOfPhase > 0 {
		t.Errorf("%d records from the wrong phase's bank", outOfPhase)
	}
}

func TestReplaySpecRoundTrip(t *testing.T) {
	src := MustCompile(mustDecode(t, `{"name": "rec-src", "instructions": 15000,
		"generator": {"kind": "callbacks", "params": {"Events": 5, "HandlerWork": 20}}}`))
	cols := src.Build()
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.spill")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	h := trace.SpillHeader{Name: src.Name, Seed: src.Seed, Instructions: src.Instructions, Fingerprint: src.Fingerprint}
	if err := trace.WriteSpillColumns(f, h, cols); err != nil {
		t.Fatal(err)
	}
	f.Close()

	raw, _ := json.Marshal(map[string]any{
		"name":      "replayed",
		"generator": map[string]any{"kind": "replay", "path": path},
	})
	ws := mustDecode(t, string(raw))
	rs, err := Compile(ws)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Instructions != src.Instructions {
		t.Errorf("replay budget %d, recorded %d", rs.Instructions, src.Instructions)
	}
	if rs.Fingerprint == 0 || rs.Fingerprint == src.Fingerprint {
		t.Errorf("replay fingerprint %016x should be nonzero and distinct from source %016x", rs.Fingerprint, src.Fingerprint)
	}
	got := rs.Build()
	if got.Name != "replayed" {
		t.Errorf("replayed columns name %q", got.Name)
	}
	if got.Len() != cols.Len() {
		t.Fatalf("replayed %d records, recorded %d", got.Len(), cols.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.Record(i) != cols.Record(i) {
			t.Fatalf("record %d differs after replay", i)
		}
	}

	// A missing file fails at compile time, not mid-run.
	raw, _ = json.Marshal(map[string]any{
		"name":      "gone",
		"generator": map[string]any{"kind": "replay", "path": filepath.Join(dir, "nope.spill")},
	})
	if _, err := Compile(mustDecode(t, string(raw))); err == nil {
		t.Error("compiling a replay of a missing file succeeded")
	} else if !strings.Contains(err.Error(), `spec "gone": reading replay source`) {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestCompositorFingerprintsDistinct(t *testing.T) {
	mk := func(in string) uint64 { return MustCompile(mustDecode(t, in)).Fingerprint }
	mixed := mk(`{"name": "m", "instructions": 1000, "generator": {"kind": "mixed", "parts": [
		{"weight": 2, "generator": {"kind": "mono", "params": {"Sites": 4}}}, {"weight": 1, "generator": {"kind": "callbacks", "params": {"Events": 4}}}]}}`)
	reweighted := mk(`{"name": "m", "instructions": 1000, "generator": {"kind": "mixed", "parts": [
		{"weight": 3, "generator": {"kind": "mono", "params": {"Sites": 4}}}, {"weight": 1, "generator": {"kind": "callbacks", "params": {"Events": 4}}}]}}`)
	seeded := mk(`{"name": "m", "instructions": 1000, "generator": {"kind": "mixed", "parts": [
		{"weight": 2, "seed": 5, "generator": {"kind": "mono", "params": {"Sites": 4}}}, {"weight": 1, "generator": {"kind": "callbacks", "params": {"Events": 4}}}]}}`)
	random := mk(`{"name": "m", "instructions": 1000, "generator": {"kind": "mixed", "random": true, "parts": [
		{"weight": 2, "generator": {"kind": "mono", "params": {"Sites": 4}}}, {"weight": 1, "generator": {"kind": "callbacks", "params": {"Events": 4}}}]}}`)
	fps := map[uint64]string{mixed: "mixed"}
	for fp, label := range map[uint64]string{reweighted: "reweighted", seeded: "seeded", random: "random"} {
		if prev, dup := fps[fp]; dup {
			t.Errorf("%s and %s share fingerprint %016x", label, prev, fp)
		}
		fps[fp] = label
	}
}
