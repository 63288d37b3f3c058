package wspec

import (
	"testing"

	"blbp/internal/trace"
	"blbp/internal/workload"
)

func TestSuiteHas88Workloads(t *testing.T) {
	suite := Suite(10_000)
	if len(suite) != 88 {
		t.Fatalf("suite has %d workloads, want 88", len(suite))
	}
	counts := map[string]int{}
	names := map[string]bool{}
	for _, s := range suite {
		counts[s.Category]++
		if names[s.Name] {
			t.Errorf("duplicate workload name %q", s.Name)
		}
		names[s.Name] = true
	}
	want := map[string]int{
		workload.CatSPEC2000:    1,
		workload.CatSPEC2006:    12,
		workload.CatSPEC2017:    7,
		workload.CatMobileShort: 24,
		workload.CatMobileLong:  12,
		workload.CatServerShort: 20,
		workload.CatServerLong:  12,
	}
	for cat, n := range want {
		if counts[cat] != n {
			t.Errorf("category %q has %d workloads, want %d", cat, counts[cat], n)
		}
	}
}

func TestMobileTracesAreIndirectRich(t *testing.T) {
	suite := Suite(30_000)
	var mobile, server *trace.Stats
	for _, s := range suite {
		if s.Name == "long-mobile-08" {
			mobile = trace.Analyze(s.Build())
		}
		if s.Name == "403.gcc-1" {
			server = trace.Analyze(s.Build())
		}
	}
	if mobile == nil || server == nil {
		t.Fatal("expected workloads not found")
	}
	// The LONG-MOBILE-8 analog has more indirect branches than conditionals.
	if mobile.IndirectCount() <= mobile.Count[trace.CondDirect] {
		t.Errorf("long-mobile-08: indirect=%d <= cond=%d, want indirect-dominated",
			mobile.IndirectCount(), mobile.Count[trace.CondDirect])
	}
	// A gcc-like trace is conditional-dominated.
	if server.IndirectCount() >= server.Count[trace.CondDirect] {
		t.Errorf("403.gcc-1: indirect=%d >= cond=%d, want conditional-dominated",
			server.IndirectCount(), server.Count[trace.CondDirect])
	}
}

func TestPolymorphismVaries(t *testing.T) {
	suite := Suite(30_000)
	minPoly, maxPoly := 2.0, -1.0
	for _, s := range suite[:30] {
		st := trace.Analyze(s.Build())
		p := st.PolymorphicFraction()
		if p < minPoly {
			minPoly = p
		}
		if p > maxPoly {
			maxPoly = p
		}
	}
	if maxPoly-minPoly < 0.3 {
		t.Errorf("polymorphism range [%.2f, %.2f] too narrow; want diverse suite", minPoly, maxPoly)
	}
}

func TestSuiteHoldoutDisjointNames(t *testing.T) {
	main := Suite(1_000)
	hold := SuiteHoldout(1_000)
	if len(hold) != 12 {
		t.Fatalf("holdout has %d workloads, want 12", len(hold))
	}
	names := map[string]bool{}
	for _, s := range main {
		names[s.Name] = true
	}
	for _, s := range hold {
		if names[s.Name] {
			t.Errorf("holdout workload %q collides with main suite", s.Name)
		}
	}
}

func TestDefaultBaseApplied(t *testing.T) {
	suite := Suite(0)
	if suite[0].Instructions <= 0 {
		t.Error("zero base did not apply a default")
	}
}

func TestSaltReseedsEveryWorkload(t *testing.T) {
	plain := SuiteSpecs(1_000, "")
	salted := SuiteSpecs(1_000, "x")
	for i := range plain {
		if plain[i].Seed != nil {
			t.Fatalf("%s: unsalted built-in spec carries an explicit seed", plain[i].Name)
		}
		if salted[i].Seed == nil {
			t.Fatalf("%s: salted spec did not pin a seed", salted[i].Name)
		}
		if *salted[i].Seed == workload.SeedFor(salted[i].Name) {
			t.Errorf("%s: salted seed equals the name-derived seed", salted[i].Name)
		}
	}
}

func TestAllBuiltinSpecsValidateAndRoundTrip(t *testing.T) {
	specs := append(SuiteSpecs(1_000, "x"), HoldoutSpecs(1_000)...)
	for i := range specs {
		ws := specs[i]
		if err := ws.Validate(); err != nil {
			t.Fatalf("%s: %v", ws.Name, err)
		}
		enc, err := ws.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", ws.Name, err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode of own encoding: %v", ws.Name, err)
		}
		a, b := MustCompile(ws), MustCompile(*back)
		if a.Identity() != b.Identity() {
			t.Errorf("%s: identity changed across encode/decode: %+v vs %+v", ws.Name, a.Identity(), b.Identity())
		}
	}
}

func TestLookupAndNames(t *testing.T) {
	ws, ok := Lookup("252.eon", 1_000)
	if !ok || ws.Name != "252.eon" {
		t.Fatal("Lookup failed to find 252.eon")
	}
	if ws.Instructions != 1_500 {
		t.Errorf("252.eon at base 1000: instructions = %d, want 1500 (SPEC scales 1.5x)", ws.Instructions)
	}
	if hw, ok := Lookup("holdout-interp-1", 1_000); !ok || hw.Instructions != 1_000 {
		t.Errorf("holdout lookup = %+v, %t; want found at base instructions", hw, ok)
	}
	if _, ok := Lookup("no-such-workload", 1_000); ok {
		t.Error("Lookup found a nonexistent workload")
	}
	names := Names()
	if len(names) != 100 {
		t.Fatalf("Names() lists %d workloads, want 100 (88 suite + 12 holdout)", len(names))
	}
	if names[0] != "252.eon" || names[len(names)-1] != "holdout-mixed-3" {
		t.Errorf("Names() order unexpected: first %q, last %q", names[0], names[len(names)-1])
	}
}
