package analysis

import (
	"fmt"
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
	Name:         "satweights",
	Doc:          "narrow counter/weight fields must be updated through //blbp:clamp saturating helpers, never raw +=/-=/++/--",
	DefaultScope: satweightsScope,
	Run:          runSatWeights,
}

func runSatWeights(pass *Pass) error {
	if !pass.InScope() {
		return nil
	}
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
						checkSatTarget(pass, f, n, lhs, n.Tok)
					}
				case *ast.IncDecStmt:
					checkSatTarget(pass, f, n, n.X, n.Tok)
				}
				return true
			})
		}
	}
	return nil
}

// checkSatTarget flags op applied to a narrow-integer field or table
// element, attaching a threshold.Sat* rewrite as a suggested fix for the
// ±1 updates of 8-bit state. Plain local variables are exempt: loop
// counters and scratch sums are not hardware state.
func checkSatTarget(pass *Pass, file *ast.File, stmt ast.Stmt, lhs ast.Expr, op token.Token) {
	switch lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
	default:
		return
	}
	t := pass.TypeOf(lhs)
	if t == nil || !isNarrowInt(t) {
		return
	}
	fix := satFix(pass, file, stmt, lhs, op, t)
	pass.ReportFix(lhs.Pos(), fix, "raw %s on %s-typed hardware state wraps instead of saturating; use a //blbp:clamp helper (threshold.SatInc8 and friends)", op.String(), t.String())
}

// satFix builds the mechanical rewrite for a ±1 update of an 8-bit target:
//
//	x++  ->  x = threshold.SatInc8(x, 127)
//
// saturating at the type's symmetric (signed) or full (unsigned) range —
// the widest bound the declared width admits; narrower modeled counters
// should tighten it by hand. Wider types and non-unit steps have no
// helper, so they get no fix. The import of blbp/internal/threshold is
// added when the file lacks it.
func satFix(pass *Pass, file *ast.File, stmt ast.Stmt, lhs ast.Expr, op token.Token, t types.Type) *SuggestedFix {
	inc := op == token.INC || op == token.ADD_ASSIGN
	if as, ok := stmt.(*ast.AssignStmt); ok {
		lit, okLit := as.Rhs[0].(*ast.BasicLit)
		if !okLit || lit.Value != "1" {
			return nil
		}
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return nil
	}
	var helper, bound string
	switch {
	case b.Kind() == types.Int8 && inc:
		helper, bound = "SatInc8", "127"
	case b.Kind() == types.Int8:
		helper, bound = "SatDec8", "-127"
	case b.Kind() == types.Uint8 && inc:
		helper, bound = "SatIncU8", "255"
	case b.Kind() == types.Uint8:
		helper, bound = "SatDecU8", "0"
	default:
		return nil
	}
	target := pass.Render(lhs)
	if target == "" {
		return nil
	}
	edits := []TextEdit{pass.Edit(stmt.Pos(), stmt.End(),
		fmt.Sprintf("%s = threshold.%s(%s, %s)", target, helper, target, bound))}
	imp, ok := ensureImportEdit(pass, file, "blbp/internal/threshold")
	if !ok {
		return nil
	}
	if imp != nil {
		edits = append(edits, *imp)
	}
	return &SuggestedFix{
		Message: fmt.Sprintf("replace with threshold.%s at the %s type bound (tighten by hand if the field models a narrower counter)", helper, t.String()),
		Edits:   edits,
	}
}

// ensureImportEdit returns the edit adding the import to the file's
// parenthesized import block (nil when already imported, ok=false when
// there is no block to extend).
func ensureImportEdit(pass *Pass, file *ast.File, path string) (*TextEdit, bool) {
	for _, im := range file.Imports {
		if im.Path.Value == `"`+path+`"` {
			return nil, true
		}
	}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT || !gd.Lparen.IsValid() || len(gd.Specs) == 0 {
			continue
		}
		last := gd.Specs[len(gd.Specs)-1]
		e := pass.Edit(last.End(), last.End(), fmt.Sprintf("\n\t%q", path))
		return &e, true
	}
	return nil, false
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
