package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// determinismScope lists the packages whose output feeds results/*.csv and
// must therefore be byte-reproducible at any -parallel: the simulation
// engine, the experiment execution layer, the declarative plan layer that
// assembles every output, the workload-spec layer that compiles the
// generator population those plans name, the table renderer, the multi-stream batching
// engine (whose bit-identical-to-serial contract a nondeterministic
// iteration order would silently void), the trace layer whose columnar
// storage, stats, and spill codecs every replay and cache path reads, the
// snapshot codec whose encodings double as state fingerprints, and
// every command front end that emits result rows.
var determinismScope = []string{
	"internal/trace",
	"internal/sim",
	"internal/snapshot",
	"internal/experiments",
	"internal/runspec",
	"internal/wspec",
	"internal/report",
	"internal/batch",
	"cmd/experiments",
	"cmd/blbpsim",
	"cmd/tracegen",
}

// Determinism forbids the classic sources of run-to-run drift in the
// result-producing packages: wall-clock reads, the process-global
// math/rand generator, iteration over maps (Go randomizes the order), and
// goroutines that write captured variables directly instead of routing
// results through the Runner's index-keyed reassembly cells.
var Determinism = &Analyzer{
	Name:  "determinism",
	Doc:   "forbid time.Now, global math/rand, map ranges, and unkeyed goroutine writes in results-producing packages",
	Scope: determinismScope,
	Run:   runDeterminism,
}

// randAllowed lists package-level math/rand functions that are
// deterministic because they only construct explicitly seeded generators.
var randAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(pass, n); fn != nil && fn.Pkg() != nil {
					switch fn.Pkg().Path() {
					case "time":
						if fn.Name() == "Now" && fn.Type().(*types.Signature).Recv() == nil {
							pass.Reportf(n.Pos(), "time.Now in a results-producing package breaks reproducibility; thread timings through the caller")
						}
					case "math/rand", "math/rand/v2":
						if fn.Type().(*types.Signature).Recv() == nil && !randAllowed[fn.Name()] {
							pass.Reportf(n.Pos(), "global math/rand.%s is process-seeded and non-reproducible; use rand.New(rand.NewSource(seed))", fn.Name())
						}
					}
				}
				// Function literals handed to the worker pool run
				// concurrently exactly like go statements.
				if name := calleeName(n); name == "submit" || name == "Go" {
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							checkGoroutineWrites(pass, lit)
						}
					}
				}
			case *ast.RangeStmt:
				if t := pass.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						pass.Reportf(n.Pos(), "ranging over a map yields a random order; collect and sort keys before emitting results")
					}
				}
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutineWrites(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// checkGoroutineWrites flags assignments inside a concurrently-executed
// function literal whose target is a plain captured identifier. Writes
// through a captured pointer, selector, or index expression are the
// sanctioned index-keyed reassembly pattern (each task owns its cell);
// a bare captured variable is shared state with a racy, order-dependent
// final value.
func checkGoroutineWrites(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested literals are not necessarily concurrent
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && capturedBy(pass, id, lit) {
					pass.Reportf(id.Pos(), "goroutine assigns captured variable %s; route results through an index-keyed cell (cells[i].field = ...)", id.Name)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := n.X.(*ast.Ident); ok && capturedBy(pass, id, lit) {
				pass.Reportf(id.Pos(), "goroutine mutates captured variable %s; route results through an index-keyed cell", id.Name)
			}
		}
		return true
	})
}

// capturedBy reports whether id denotes a variable declared outside lit.
func capturedBy(pass *Pass, id *ast.Ident, lit *ast.FuncLit) bool {
	obj := pass.ObjectOf(id)
	if obj == nil {
		return false
	}
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
}

// calleeFunc resolves a call's static callee to its *types.Func, or nil
// for builtins, type conversions, and dynamic calls.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.ObjectOf(id).(*types.Func)
	return fn
}

// calleeName returns the syntactic name of a call's callee.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
