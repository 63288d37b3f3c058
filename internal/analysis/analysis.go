// Package analysis is a repo-specific static-analysis suite enforcing the
// invariants the paper's evaluation rests on: bit-reproducible results
// (determinism), hardware structures that stay inside the paper's declared
// bit budgets (hwbudget), saturating weight and counter arithmetic
// (satweights), consistent atomic access (atomics), and allocation-free
// prediction hot loops (hotalloc).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis — an
// Analyzer runs over one type-checked package at a time and reports
// position-tagged diagnostics — but is built on the standard library only
// (go/ast, go/types, and export data from `go list -export`), because this
// repository carries no external dependencies. Every analyzer is
// per-package: none keeps state from one package to the next.
//
// Three comment directives drive the suite: //blbp:clamp marks the
// saturating helpers satweights exempts, //blbp:hot marks the functions
// hotalloc checks, and //blbp:allow suppresses a finding.
//
// Suppressions: a comment of the form
//
//	//blbp:allow(<analyzer>) <reason>
//
// on the flagged line or the line immediately above silences that
// analyzer's diagnostics for the line. Matching is position-exact: a
// comment two or more lines away suppresses nothing. A malformed allow
// comment (missing reason), an unknown analyzer name, and an allow that
// suppresses no finding are themselves diagnostics (analyzer "allow",
// never suppressible). Every suppression must be recorded in
// ANALYSIS_EXCEPTIONS.md at the repository root; `blbplint -suppressed`
// lists the live ones and `blbplint -exceptions` cross-checks the file.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Scope lists package-path suffixes the analyzer applies to (matched
	// at path-segment boundaries); nil means every package.
	Scope []string
	// Run reports diagnostics for one package.
	Run func(*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks diagnostics silenced by a //blbp:allow comment;
	// they are kept (for auditing) but do not fail the build.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// allowEntry is one parsed //blbp:allow comment.
type allowEntry struct {
	pos   token.Position
	names []string
	used  map[string]bool
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// allow maps file:line to the allow comment active there; malformed
	// holds the audit diagnostics found while parsing the comments.
	allow     map[string]*allowEntry
	malformed []Diagnostic
}

// Program is the full set of packages under analysis.
type Program struct {
	Packages []*Package
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object denoted by id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

var allowRe = regexp.MustCompile(`^//blbp:allow\(([a-z,]+)\)\s+\S`)

// buildAllow parses every //blbp:allow comment of the package into the
// position-keyed allow map and records malformed comments (missing
// reason, empty analyzer list) as unsuppressible "allow" diagnostics.
func (pkg *Package) buildAllow() {
	if pkg.allow != nil {
		return
	}
	pkg.allow = map[string]*allowEntry{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//blbp:allow") {
					continue
				}
				cp := pkg.Fset.Position(c.Pos())
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					pkg.malformed = append(pkg.malformed, Diagnostic{
						Pos:      cp,
						Analyzer: "allow",
						Message:  "malformed //blbp:allow comment: want //blbp:allow(<analyzer>) <reason>, with a non-empty reason",
					})
					continue
				}
				key := fmt.Sprintf("%s:%d", cp.Filename, cp.Line)
				entry := pkg.allow[key]
				if entry == nil {
					entry = &allowEntry{pos: cp, used: map[string]bool{}}
					pkg.allow[key] = entry
				}
				for _, n := range strings.Split(m[1], ",") {
					entry.names = append(entry.names, strings.TrimSpace(n))
				}
			}
		}
	}
}

// allowedAt reports whether the named analyzer is suppressed at position
// pos by a //blbp:allow comment on the same line or the line above
// (position-exact: two lines away does not match), marking the matching
// entry used for the unused-allow audit.
func (pkg *Package) allowedAt(name string, pos token.Position) bool {
	pkg.buildAllow()
	for _, line := range []int{pos.Line, pos.Line - 1} {
		entry := pkg.allow[fmt.Sprintf("%s:%d", pos.Filename, line)]
		if entry == nil {
			continue
		}
		for _, n := range entry.names {
			if n == name {
				entry.used[name] = true
				return true
			}
		}
	}
	return false
}

// auditAllows returns the allow-comment audit diagnostics for the package:
// malformed comments, unknown analyzer names, and allows that suppressed
// nothing among the analyzers that ran. They carry Analyzer "allow" and
// are never themselves suppressible.
func (pkg *Package) auditAllows(known, ran map[string]bool) []Diagnostic {
	pkg.buildAllow()
	diags := append([]Diagnostic(nil), pkg.malformed...)
	for _, entry := range pkg.allow {
		for _, n := range entry.names {
			switch {
			case !known[n]:
				diags = append(diags, Diagnostic{
					Pos:      entry.pos,
					Analyzer: "allow",
					Message:  fmt.Sprintf("//blbp:allow names unknown analyzer %q", n),
				})
			case ran[n] && !entry.used[n]:
				diags = append(diags, Diagnostic{
					Pos:      entry.pos,
					Analyzer: "allow",
					Message:  fmt.Sprintf("unused //blbp:allow(%s): it suppresses no finding on this line or the line below", n),
				})
			}
		}
	}
	return diags
}

// Run executes the analyzers over the program — each analyzer over every
// package inside its Scope — then the allow-comment audit. Diagnostics
// are returned with suppressions marked.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			if a.Scope != nil && !pathIn(pkg.Path, a.Scope) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, report: func(d Diagnostic) {
				d.Suppressed = pkg.allowedAt(d.Analyzer, d.Pos)
				diags = append(diags, d)
			}}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	known, ran := map[string]bool{}, map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range prog.Packages {
		diags = append(diags, pkg.auditAllows(known, ran)...)
	}
	return diags, nil
}

// pathIn reports whether the package path matches any of the given path
// suffixes (each matched at a path-segment boundary).
func pathIn(pkgPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// hasDirective reports whether the doc comment group contains the given
// //blbp:<name> directive, alone or followed by a space.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//"+directive)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}
