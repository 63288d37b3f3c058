package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// The loader type-checks the module's packages from source while resolving
// every import — standard library and intra-module alike — from compiler
// export data produced by `go list -export`. That gives full go/types
// information (the analyzers need resolved field objects and interface
// assignability) without depending on golang.org/x/tools.

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json=ImportPath,Dir,Export,GoFiles,Module,Error"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a types.Importer reading export data files from
// the given ImportPath -> export-file map.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Load type-checks the module packages matching the patterns (run from
// dir, typically the repository root) and returns them as a Program.
// Non-module dependencies are loaded from export data only. Build
// constraints apply exactly as in a build (go list resolves the file
// lists), _test.go files are not loaded, and vendored packages are never
// matched by path patterns.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"-deps", "-export"}, patterns...)
	pkgs, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var mods []listPkg
	for _, p := range pkgs {
		if p.Error != nil && p.Error.Err != "" {
			return nil, fmt.Errorf("analysis: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module != nil {
			mods = append(mods, p)
		}
	}
	if len(mods) == 0 {
		return nil, fmt.Errorf("analysis: no module packages match %v", patterns)
	}
	sort.Slice(mods, func(i, j int) bool { return mods[i].ImportPath < mods[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	prog := &Program{}
	for _, p := range mods {
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, gf := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, gf), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", p.ImportPath, err)
		}
		prog.Packages = append(prog.Packages, &Package{
			Path:  p.ImportPath,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return prog, nil
}

// LoadDir parses and type-checks the single package rooted at dir (every
// .go file in it), registering it under asPath so path-scoped analyzers
// apply. It is the loader behind the analyzer testdata suites: testdata
// packages import only the standard library, whose export data is resolved
// through `go list -export`.
func LoadDir(dir, asPath string) (*Program, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
		for _, im := range f.Imports {
			importSet[im.Path.Value[1:len(im.Path.Value)-1]] = true
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	exports := map[string]string{}
	if len(importSet) > 0 {
		var paths []string
		for p := range importSet {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		pkgs, err := goList(dir, append([]string{"-deps", "-export"}, paths...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	info := newInfo()
	conf := types.Config{Importer: exportImporter(fset, exports)}
	tpkg, err := conf.Check(asPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", dir, err)
	}
	return &Program{
		Packages: []*Package{{Path: asPath, Fset: fset, Files: files, Types: tpkg, Info: info}},
	}, nil
}
