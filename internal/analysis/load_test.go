package analysis

import (
	"path/filepath"
	"testing"
)

// loadmodFiles returns the base names of every parsed file of the
// fixture-module program, and asserts the program holds exactly the one
// expected package.
func loadmodFiles(t *testing.T, prog *Program) map[string]bool {
	t.Helper()
	if len(prog.Packages) != 1 {
		var paths []string
		for _, p := range prog.Packages {
			paths = append(paths, p.Path)
		}
		t.Fatalf("want exactly the loadmod package, got %v", paths)
	}
	pkg := prog.Packages[0]
	if pkg.Path != "loadmod" {
		t.Fatalf("package path = %q, want loadmod", pkg.Path)
	}
	names := map[string]bool{}
	for _, f := range pkg.Files {
		names[filepath.Base(pkg.Fset.Position(f.Pos()).Filename)] = true
	}
	return names
}

// TestLoadBuildSelection locks the loader's file selection to the build's:
// build-tagged files stay out without their tag, test files stay out, and
// the vendor tree is never matched.
func TestLoadBuildSelection(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "loadmod"))
	if err != nil {
		t.Fatal(err)
	}
	names := loadmodFiles(t, prog)
	if !names["a.go"] {
		t.Error("a.go missing from the default load")
	}
	if names["tagged.go"] {
		t.Error("tagged.go loaded despite its unsatisfied build tag")
	}
	if names["a_test.go"] {
		t.Error("a_test.go loaded; the loader reads no test files")
	}
	if names["v.go"] {
		t.Error("vendored file leaked into the package")
	}
}

// TestLoadVendorPattern documents that even an explicit ./... from the
// module root cannot pull in the vendor tree.
func TestLoadVendorPattern(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "loadmod"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prog.Packages {
		if p.Path != "loadmod" {
			t.Errorf("unexpected package %q matched by ./...", p.Path)
		}
	}
}
