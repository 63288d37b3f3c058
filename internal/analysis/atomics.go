package analysis

import (
	"go/ast"
	"go/types"
)

// Atomics forbids the package-level sync/atomic functions (atomic.AddInt64,
// atomic.LoadUint32 and friends) everywhere. They operate on plain
// variables, so nothing stops a neighbouring plain load or store of the
// same variable: a data race the race detector only catches when the
// schedule cooperates. Shared counters must be the typed atomics
// (atomic.Int64 and friends, the trace cache's counters), whose value no
// code can read or write except through the atomic methods — so atomic
// everywhere holds by construction, with no program-wide bookkeeping.
var Atomics = &Analyzer{
	Name: "atomics",
	Doc:  "no package-level sync/atomic functions: shared counters are typed atomics, which cannot be accessed plainly",
	Run:  runAtomics,
}

func runAtomics(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // a method of atomic.Int64 etc.: safe by type
			}
			pass.Reportf(call.Pos(), "atomic.%s operates on a plain variable that other code can still access plainly; declare it as a typed atomic (atomic.Int64 and friends)", fn.Name())
			return true
		})
	}
	return nil
}
