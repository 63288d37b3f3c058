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
// repository carries no external dependencies. A whole-program analyzer
// (atomics) implements a Collect phase that visits every package before any
// Run and keeps what it learns in Program.Facts.
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
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
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
	// DefaultScope lists package-path suffixes the analyzer applies to
	// (matched at path-segment boundaries); nil means every package.
	// Program.Scopes overrides it per run.
	DefaultScope []string
	// Collect, when non-nil, runs over every package of the program before
	// any Run call, letting a whole-program analyzer gather state into
	// Program.Facts.
	Collect func(*Pass)
	// Run reports diagnostics for one package.
	Run func(*Pass) error
}

// TextEdit replaces the byte range [Start, End) of Filename with NewText.
type TextEdit struct {
	Filename string
	Start    int
	End      int
	NewText  string
}

// SuggestedFix is a mechanical rewrite that resolves a diagnostic.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks diagnostics silenced by a //blbp:allow comment;
	// they are kept (for auditing) but do not fail the build.
	Suppressed bool
	// Fix, when non-nil, is a rewrite `blbplint -fix` can apply.
	Fix *SuggestedFix
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

// Program is the full set of packages under analysis plus cross-package
// state shared between Collect and Run phases.
type Program struct {
	Packages []*Package
	// Facts holds whole-program analyzer-private state keyed by analyzer;
	// Collect writes it, Run reads it. The driver runs phases sequentially,
	// so no locking.
	Facts map[*Analyzer]interface{}
	// Scopes overrides analyzers' DefaultScope by name: a missing entry
	// keeps the default, a list containing "all" means every package.
	Scopes map[string][]string
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Program  *Program
	report   func(Diagnostic)
}

// InScope reports whether the pass's package is inside the analyzer's
// configured scope (Program.Scopes override, else DefaultScope; nil or
// "all" means every package).
func (p *Pass) InScope() bool {
	scope, ok := p.Program.Scopes[p.Analyzer.Name]
	if !ok {
		scope = p.Analyzer.DefaultScope
	}
	if scope == nil {
		return true
	}
	for _, s := range scope {
		if s == "all" {
			return true
		}
	}
	return pathIn(p.Pkg.Path, scope)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFix records a diagnostic carrying a suggested fix.
func (p *Pass) ReportFix(pos token.Pos, fix *SuggestedFix, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// Edit builds a TextEdit replacing the source range [from, to).
func (p *Pass) Edit(from, to token.Pos, newText string) TextEdit {
	f, t := p.Pkg.Fset.Position(from), p.Pkg.Fset.Position(to)
	return TextEdit{Filename: f.Filename, Start: f.Offset, End: t.Offset, NewText: newText}
}

// Render prints the node back to canonical Go source (for building fix
// texts without re-reading the file).
func (p *Pass) Render(n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, p.Pkg.Fset, n); err != nil {
		return ""
	}
	return buf.String()
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object denoted by id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// objKey builds the cross-package identity key for an object: a field
// reached through export data must unify with the same field in its
// source-checked home package, so objects are keyed by package path and
// name (conservatively: same-named objects of one package share a key).
func objKey(obj types.Object) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	return pkg + ":" + obj.Name()
}

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

// Run executes the analyzers over the program: every Collect phase first
// (in analyzer order, package order), then every Run, then the
// allow-comment audit. Diagnostics are returned with
// suppressions marked.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	if prog.Facts == nil {
		prog.Facts = map[*Analyzer]interface{}{}
	}
	var diags []Diagnostic
	reporter := func(pkg *Package) func(Diagnostic) {
		return func(d Diagnostic) {
			d.Suppressed = pkg.allowedAt(d.Analyzer, d.Pos)
			diags = append(diags, d)
		}
	}
	for _, a := range analyzers {
		if a.Collect == nil {
			continue
		}
		for _, pkg := range prog.Packages {
			a.Collect(&Pass{Analyzer: a, Pkg: pkg, Program: prog, report: reporter(pkg)})
		}
	}
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{Analyzer: a, Pkg: pkg, Program: prog, report: reporter(pkg)}
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
