package wspec

import (
	"encoding/json"
	"fmt"

	"blbp/internal/workload"
)

// The paper-mirroring suites as data. SuiteSpecs and HoldoutSpecs are the
// registry's built-in entries — pure WorkloadSpec values, dumpable with
// -dumpspec and byte-identical under Compile to the closure-built suite
// they replaced (internal/wspec's golden test pins this against trace
// checksums captured from the pre-refactor generators).

// defaultBase is the per-SHORT-trace instruction budget a zero base
// selects.
const defaultBase = 400_000

func leafNode(kind string, params any) Node {
	b, err := json.Marshal(params)
	if err != nil {
		panic(fmt.Sprintf("wspec: marshaling %s params: %v", kind, err))
	}
	return Node{Kind: kind, Params: b}
}

func builtin(name, category string, instructions int64, g Node) WorkloadSpec {
	return WorkloadSpec{Name: name, Category: category, Instructions: instructions, Generator: g}
}

// leafParams lists the six generator parameter structs.
type leafParams interface {
	workload.InterpreterParams | workload.VDispatchParams | workload.SwitcherParams |
		workload.CallbacksParams | workload.MonoParams | workload.RecursiveParams
}

// Leaf compiles the one-leaf spec of a single generator, seeded from its
// name: the path the public blbp.New*Workload constructors take. It panics
// on any parameters Validate rejects.
func Leaf[P leafParams](name, category string, instructions int64, p P) workload.Spec {
	var kind string
	switch any(p).(type) {
	case workload.InterpreterParams:
		kind = "interpreter"
	case workload.VDispatchParams:
		kind = "vdispatch"
	case workload.SwitcherParams:
		kind = "switcher"
	case workload.CallbacksParams:
		kind = "callbacks"
	case workload.MonoParams:
		kind = "mono"
	case workload.RecursiveParams:
		kind = "recursive"
	}
	return MustCompile(builtin(name, category, instructions, leafNode(kind, p)))
}

func mixedNode(random bool, parts ...Part) Node {
	return Node{Kind: "mixed", Random: random, Parts: parts}
}

func part(weight int, kind string, params any) Part {
	return Part{Weight: weight, Generator: leafNode(kind, params)}
}

// SuiteSpecs returns the full 88-workload evaluation suite as declarative
// specs, mirroring Table 1's category counts: 1 SPEC CPU2000, 12 SPEC
// CPU2006, 7 SPEC CPU2017, and 68 CBP-5-style traces (36 mobile, 32
// server). base scales trace lengths: SHORT traces run ~base instructions,
// LONG traces ~2x base, SPEC ~1.5x; base 0 applies the 400k default. A
// non-empty salt re-seeds every workload (same names and parameters,
// different random content) for the seed-sensitivity experiment.
func SuiteSpecs(base int64, salt string) []WorkloadSpec {
	if base <= 0 {
		base = defaultBase
	}
	spec := base * 3 / 2
	long := base * 2
	specs := make([]WorkloadSpec, 0, 88)

	// --- SPEC CPU2000: 252.eon (C++ ray tracer, moderate polymorphism).
	specs = append(specs, builtin("252.eon", workload.CatSPEC2000, spec, leafNode("vdispatch", workload.VDispatchParams{
		Classes: 6, Sites: 4, Objects: 24, TypeNoise: 0.002,
		MethodWork: 210, MethodConds: 3, CondNoise: 0.004,
		MonoCalls: 1, MonoSites: 40,
	})))

	// --- SPEC CPU2006 (12).
	for i := 0; i < 3; i++ {
		specs = append(specs, builtin(fmt.Sprintf("400.perlbench-%d", i+1), workload.CatSPEC2006, spec, leafNode("interpreter", workload.InterpreterParams{
			Opcodes: []int{110, 130, 150}[i], ProgramLen: []int{280, 350, 420}[i],
			Work: 180, CondPerHandler: 2,
			CondNoise: 0.003 + 0.002*float64(i), DispatchNoise: 0.002 + 0.0015*float64(i),
			MonoCalls: 1, MonoSites: 30 + 20*i,
		})))
	}
	for i := 0; i < 4; i++ {
		specs = append(specs, builtin(fmt.Sprintf("403.gcc-%d", i+1), workload.CatSPEC2006, spec, leafNode("switcher", workload.SwitcherParams{
			Tokens: []int{9, 11, 13, 96}[i], TransitionNoise: 0.003 + 0.003*float64(i),
			CaseWork: 210, CaseConds: 3, CondNoise: 0.004,
			MonoCalls: 2, MonoSites: 120 + 40*i,
		})))
	}
	for i := 0; i < 2; i++ {
		specs = append(specs, builtin(fmt.Sprintf("453.povray-%d", i+1), workload.CatSPEC2006, spec, leafNode("vdispatch", workload.VDispatchParams{
			Classes: 4 + 2*i, Sites: 3, Objects: 20 + 12*i, TypeNoise: 0.004,
			MethodWork: 240, MethodConds: 3, CondNoise: 0.004,
			MonoCalls: 2, MonoSites: 60,
		})))
	}
	for i := 0; i < 3; i++ {
		specs = append(specs, builtin(fmt.Sprintf("458.sjeng-%d", i+1), workload.CatSPEC2006, spec, mixedNode(false,
			part(72, "switcher", workload.SwitcherParams{Tokens: 10, TransitionNoise: 0.015 + 0.005*float64(i), CaseWork: 180, CaseConds: 3, CondNoise: 0.006, MonoCalls: 1, MonoSites: 50, Bank: 0}),
			part(24, "callbacks", workload.CallbacksParams{Events: 5, Skew: 2.4, Wrappers: 3, HandlerWork: 180, HandlerConds: 2, Bank: 1}),
		)))
	}

	// --- SPEC CPU2017 (7).
	for i := 0; i < 2; i++ {
		specs = append(specs, builtin(fmt.Sprintf("600.perlbench-%d", i+1), workload.CatSPEC2017, spec, leafNode("interpreter", workload.InterpreterParams{
			Opcodes: []int{130, 150}[i], ProgramLen: []int{360, 420}[i],
			Work: 180, CondPerHandler: 2,
			CondNoise: 0.004, DispatchNoise: 0.0025 + 0.002*float64(i),
			MonoCalls: 1, MonoSites: 50,
		})))
	}
	for i := 0; i < 3; i++ {
		specs = append(specs, builtin(fmt.Sprintf("602.gcc-%d", i+1), workload.CatSPEC2017, spec, leafNode("switcher", workload.SwitcherParams{
			Tokens: []int{11, 14, 80}[i], TransitionNoise: 0.004 + 0.003*float64(i),
			CaseWork: 210, CaseConds: 3, CondNoise: 0.004,
			MonoCalls: 2, MonoSites: 200,
		})))
	}
	for i := 0; i < 2; i++ {
		specs = append(specs, builtin(fmt.Sprintf("623.xalancbmk-%d", i+1), workload.CatSPEC2017, spec, leafNode("vdispatch", workload.VDispatchParams{
			Classes: []int{8, 24}[i], Sites: []int{6, 96}[i], Objects: []int{36, 192}[i], TypeNoise: 0.003,
			AlternatingSites: 1,
			MethodWork:       180, MethodConds: 2, CondNoise: 0.004,
			MonoCalls: 1, MonoSites: 80,
		})))
	}

	// --- CBP-5 SHORT-MOBILE (24): Java-like, indirect-rich. A third are
	// phase-mixed (vdispatch + interpreter in long bursts); the rest are
	// single-family with varied footprints.
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("short-mobile-%02d", i+1)
		vdp := workload.VDispatchParams{
			Classes: 3 + i%4, Sites: 3 + i%3, Objects: 16 + 8*(i%3),
			TypeNoise:        0.001 * float64(i%4),
			AlternatingSites: map[bool]int{true: 1 + i%2, false: 0}[i%4 == 0],
			MethodWork:       84, MethodConds: 2, CondNoise: 0.003 + 0.001*float64(i%3),
			MonoCalls: i % 3, MonoSites: 20 + 10*(i%5),
			Bank: 0,
		}
		inp := workload.InterpreterParams{
			Opcodes: []int{12, 14, 96, 16, 10, 14, 18, 12, 120, 14, 16, 11}[i%12], ProgramLen: []int{24, 32, 260, 40, 28, 36, 48, 24, 320, 32, 40, 30}[i%12],
			Work: 72, CondPerHandler: 1,
			CondNoise: 0.003, DispatchNoise: 0.0015 + 0.001*float64(i%4),
			MonoCalls: 1, MonoSites: 25,
			Bank: 1,
		}
		switch i % 3 {
		case 0:
			specs = append(specs, builtin(name, workload.CatMobileShort, base, mixedNode(false,
				part(150, "vdispatch", vdp),
				part(100, "interpreter", inp),
			)))
		case 1:
			specs = append(specs, builtin(name, workload.CatMobileShort, base, leafNode("vdispatch", vdp)))
		default:
			specs = append(specs, builtin(name, workload.CatMobileShort, base, leafNode("interpreter", inp)))
		}
	}

	// --- CBP-5 LONG-MOBILE (12): bigger footprints; index 8 is the
	// LONG-MOBILE-8 analog with more indirect branches than conditionals.
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("long-mobile-%02d", i+1)
		vdp := workload.VDispatchParams{
			Classes: 4 + i%5, Sites: 4 + i%4, Objects: 24 + 16*(i%3),
			TypeNoise:        0.001 * float64(i%5),
			AlternatingSites: map[bool]int{true: 1 + i%2, false: 0}[i%4 == 0],
			MethodWork:       90, MethodConds: 2, CondNoise: 0.004,
			MonoCalls: 1 + i%2, MonoSites: 40 + 20*(i%4),
			Bank: 0,
		}
		if i == 7 { // long-mobile-08: indirect-dominated
			vdp.MethodConds = 0
			vdp.MethodWork = 12
			vdp.AlternatingSites = 4
			vdp.MonoCalls = 2
		}
		inp := workload.InterpreterParams{
			Opcodes: []int{14, 12, 110, 15, 18, 13}[i%6], ProgramLen: []int{36, 32, 300, 44, 56, 40}[i%6],
			Work: 66, CondPerHandler: 1,
			CondNoise: 0.003, DispatchNoise: 0.002,
			MonoCalls: 1, MonoSites: 30,
			Bank: 1,
		}
		switch i % 3 {
		case 0:
			specs = append(specs, builtin(name, workload.CatMobileLong, long, mixedNode(false,
				part(150, "vdispatch", vdp),
				part(100, "interpreter", inp),
			)))
		case 1:
			specs = append(specs, builtin(name, workload.CatMobileLong, long, leafNode("vdispatch", vdp)))
		default:
			specs = append(specs, builtin(name, workload.CatMobileLong, long, leafNode("interpreter", inp)))
		}
	}

	// --- CBP-5 SHORT-SERVER (20): request dispatch with random event
	// mixes, larger static footprints, harder tails.
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("short-server-%02d", i+1)
		specs = append(specs, builtin(name, workload.CatServerShort, base, mixedNode(false,
			part(6, "callbacks", workload.CallbacksParams{
				Events: 4 + i%5, Skew: 2.0 + 0.2*float64(i%5),
				Wrappers: 4 + i%4, HandlerWork: 180, HandlerConds: 2,
				Bank: 0,
			}),
			part(28, "switcher", workload.SwitcherParams{
				Tokens: []int{12, 16, 20, 24, 44, 28}[i%6], TransitionNoise: 0.003 + 0.0015*float64(i%5),
				CaseWork: 180, CaseConds: 3, CondNoise: 0.004,
				MonoCalls: 1, MonoSites: 60 + 30*(i%4),
				Bank: 1,
			}),
			part(14, "mono", workload.MonoParams{Sites: 60 + 20*(i%4), Work: 120, Bank: 2}),
		)))
	}

	// --- CBP-5 LONG-SERVER (12).
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("long-server-%02d", i+1)
		specs = append(specs, builtin(name, workload.CatServerLong, long, mixedNode(false,
			part(6, "callbacks", workload.CallbacksParams{
				Events: 5 + i%4, Skew: 2.2,
				Wrappers: 6, HandlerWork: 150, HandlerConds: 2,
				Bank: 0,
			}),
			part(28, "vdispatch", workload.VDispatchParams{
				Classes: 5 + i%4, Sites: 6, Objects: 32,
				TypeNoise:  0.0015,
				MethodWork: 120, MethodConds: 2, CondNoise: 0.004,
				MonoCalls: 1, MonoSites: 100,
				Bank: 1,
			}),
			part(14, "mono", workload.MonoParams{Sites: 80 + 30*(i%3), Work: 150, Bank: 2}),
		)))
	}

	if salt != "" {
		for i := range specs {
			seed := workload.SeedFor(specs[i].Name + "#" + salt)
			specs[i].Seed = &seed
		}
	}
	return specs
}

// HoldoutSpecs returns the 12-workload cross-validation suite with
// parameter and seed settings disjoint from SuiteSpecs — the analog of the
// paper's CBP-4 check that BLBP was not overtuned to its development
// traces.
func HoldoutSpecs(base int64) []WorkloadSpec {
	if base <= 0 {
		base = defaultBase
	}
	specs := make([]WorkloadSpec, 0, 12)
	for i := 0; i < 3; i++ {
		specs = append(specs, builtin(fmt.Sprintf("holdout-interp-%d", i+1), "HOLDOUT", base, leafNode("interpreter", workload.InterpreterParams{
			Opcodes: 11 + 5*i, ProgramLen: 28 + 20*i,
			Work: 165, CondPerHandler: 2,
			CondNoise: 0.012, DispatchNoise: 0.0015 + 0.0015*float64(i),
			MonoCalls: 1, MonoSites: 35,
		})))
	}
	for i := 0; i < 3; i++ {
		specs = append(specs, builtin(fmt.Sprintf("holdout-switch-%d", i+1), "HOLDOUT", base, leafNode("switcher", workload.SwitcherParams{
			Tokens: 13 + 7*i, TransitionNoise: 0.004 + 0.0035*float64(i),
			CaseWork: 195, CaseConds: 3, CondNoise: 0.004,
			MonoCalls: 1, MonoSites: 90,
		})))
	}
	for i := 0; i < 3; i++ {
		specs = append(specs, builtin(fmt.Sprintf("holdout-vdisp-%d", i+1), "HOLDOUT", base, leafNode("vdispatch", workload.VDispatchParams{
			Classes: 5 + 2*i, Sites: 3 + i, Objects: 20 + 14*i,
			TypeNoise:        0.0015,
			AlternatingSites: i,
			MethodWork:       165, MethodConds: 2, CondNoise: 0.004,
			MonoCalls: 1 + i%2, MonoSites: 45,
		})))
	}
	for i := 0; i < 3; i++ {
		specs = append(specs, builtin(fmt.Sprintf("holdout-mixed-%d", i+1), "HOLDOUT", base, mixedNode(false,
			part(5, "callbacks", workload.CallbacksParams{Events: 4 + i, Skew: 2.3, Wrappers: 3, HandlerWork: 165, HandlerConds: 2, Bank: 0}),
			part(25, "interpreter", workload.InterpreterParams{Opcodes: 14, ProgramLen: 26 + 14*i, Work: 135, CondPerHandler: 1, CondNoise: 0.004, DispatchNoise: 0.002, MonoCalls: 1, MonoSites: 40, Bank: 1}),
		)))
	}
	return specs
}

// Suite compiles the full 88-workload evaluation suite (the data form is
// SuiteSpecs).
func Suite(base int64) []workload.Spec { return SuiteSeeded(base, "") }

// SuiteSeeded compiles the suite under a seed salt (see SuiteSpecs).
func SuiteSeeded(base int64, salt string) []workload.Spec {
	return compileAll(SuiteSpecs(base, salt))
}

// SuiteHoldout compiles the 12-workload cross-validation suite.
func SuiteHoldout(base int64) []workload.Spec {
	return compileAll(HoldoutSpecs(base))
}

func compileAll(specs []WorkloadSpec) []workload.Spec {
	out := make([]workload.Spec, len(specs))
	for i, ws := range specs {
		out[i] = MustCompile(ws)
	}
	return out
}

// Lookup finds a built-in workload spec by name, searching the standard
// suite then the holdout at the given base.
func Lookup(name string, base int64) (WorkloadSpec, bool) {
	for _, ws := range SuiteSpecs(base, "") {
		if ws.Name == name {
			return ws, true
		}
	}
	for _, ws := range HoldoutSpecs(base) {
		if ws.Name == name {
			return ws, true
		}
	}
	return WorkloadSpec{}, false
}

// Names lists every built-in workload name, standard suite first, then
// holdout, in suite order.
func Names() []string {
	std := SuiteSpecs(0, "")
	hold := HoldoutSpecs(0)
	names := make([]string, 0, len(std)+len(hold))
	for _, ws := range std {
		names = append(names, ws.Name)
	}
	for _, ws := range hold {
		names = append(names, ws.Name)
	}
	return names
}
