package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// satweightsScope lists the predictor packages whose narrow counters and
// perceptron weights model saturating hardware arithmetic.
var satweightsScope = []string{
	"internal/core",
	"internal/cond",
	"internal/ittage",
	"internal/btb",
	"internal/vpc",
	"internal/targetcache",
	"internal/cascaded",
	"internal/combined",
	"internal/batch",
	"internal/replacement",
	"internal/region",
}

// SatWeights forbids raw +=, -=, ++ and -- on narrow (<= 16-bit) integer
// fields and table elements in the predictor packages: every such value
// models a saturating hardware counter or perceptron weight, and an
// unclamped update silently wraps, corrupting the predictor while staying
// inside the declared bit budget. Updates must go through a clamp helper —
// a function carrying the //blbp:clamp directive (the saturating helpers
// in internal/threshold and internal/cond) — whose body is exempt.
var SatWeights = &Analyzer{
	Name:  "satweights",
	Doc:   "narrow counter/weight fields must be updated through //blbp:clamp saturating helpers, never raw +=/-=/++/--",
	Scope: satweightsScope,
	Run:   runSatWeights,
}

func runSatWeights(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hasDirective(fd.Doc, "blbp:clamp") {
				continue // the clamp helper itself implements the saturation
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.ADD_ASSIGN && n.Tok != token.SUB_ASSIGN {
						return true
					}
					for _, lhs := range n.Lhs {
						checkSatTarget(pass, lhs, n.Tok)
					}
				case *ast.IncDecStmt:
					checkSatTarget(pass, n.X, n.Tok)
				}
				return true
			})
		}
	}
	return nil
}

// checkSatTarget flags op applied to a narrow-integer field or table
// element. Plain local variables are exempt: loop counters and running
// sums are not hardware state.
func checkSatTarget(pass *Pass, lhs ast.Expr, op token.Token) {
	switch lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
	default:
		return
	}
	t := pass.TypeOf(lhs)
	if t == nil || !isNarrowInt(t) {
		return
	}
	pass.Reportf(lhs.Pos(), "raw %s on %s-typed hardware state wraps instead of saturating; use a //blbp:clamp helper (threshold.SatInc8 and friends)", op.String(), t.String())
}

// isNarrowInt reports whether t's underlying type is an integer of 16 bits
// or fewer — the widths predictor counters and weights are declared at.
func isNarrowInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int8, types.Uint8, types.Int16, types.Uint16:
		return true
	}
	return false
}
