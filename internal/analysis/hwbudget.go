package analysis

import (
	"go/ast"
	"go/token"
)

// hwbudgetScope lists the packages modeling hardware structures: their
// table geometries are bit-budgeted in the paper and their index
// arithmetic must be implementable as a mask.
var hwbudgetScope = []string{
	"internal/core",
	"internal/ibtb",
	"internal/btb",
	"internal/ittage",
	"internal/cond",
	"internal/history",
	"internal/vpc",
	"internal/targetcache",
	"internal/cascaded",
	"internal/combined",
	"internal/replacement",
	"internal/region",
}

// HWBudget enforces the hardware-budget discipline: predictor tables are
// indexed by mask, never by modulo (a non-power-of-two reduction must go
// through hashing.Index, the one audited reduction helper). The default
// configurations' agreement with the paper's configuration table is held
// by TestDefaultConfigMatchesPaper in internal/core and internal/ibtb.
var HWBudget = &Analyzer{
	Name:  "hwbudget",
	Doc:   "table indices must be masks (no %)",
	Scope: hwbudgetScope,
	Run:   runHWBudget,
}

func runHWBudget(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			idx, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			ast.Inspect(idx.Index, func(m ast.Node) bool {
				if b, ok := m.(*ast.BinaryExpr); ok && b.Op == token.REM {
					pass.Reportf(b.Pos(), "table index computed with %%; size the structure to a power of two and mask (or reduce through hashing.Index)")
				}
				return true
			})
			return true
		})
	}
	return nil
}
