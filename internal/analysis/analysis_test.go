package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches the expectation comments in testdata sources:
//
//	// want "regexp"   or   // want `regexp`
var wantRe = regexp.MustCompile("// want (?:\"([^\"]*)\"|`([^`]*)`)")

// wantsIn collects the expectations of every .go file in dir, keyed by
// "filename:line".
func wantsIn(t *testing.T, dir string) map[string]*regexp.Regexp {
	t.Helper()
	wants := map[string]*regexp.Regexp{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".go" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			expr := m[1]
			if expr == "" {
				expr = m[2]
			}
			re, err := regexp.Compile(expr)
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern: %v", path, i+1, err)
			}
			wants[fmt.Sprintf("%s:%d", filepath.Base(path), i+1)] = re
		}
	}
	return wants
}

// runTestdata loads testdata/<dirname> as package asPath, runs the
// analyzers, and checks the diagnostics
// against the // want comments: every diagnostic must match the want on
// its line, and every want must fire.
func runTestdata(t *testing.T, analyzers []*Analyzer, dirname, asPath string) {
	t.Helper()
	dir := filepath.Join("testdata", dirname)
	prog, err := LoadDir(dir, asPath)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := wantsIn(t, dir)
	hit := map[string]bool{}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		re, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s: diagnostic %q does not match want %q", key, d.Message, re)
			continue
		}
		hit[key] = true
	}
	for key, re := range wants {
		if !hit[key] {
			t.Errorf("%s: expected diagnostic matching %q, got none", key, re)
		}
	}
}

// The asPath values place each testdata package inside the analyzer's
// scope (pathIn matches path suffixes at segment boundaries).

func TestDeterminism(t *testing.T) {
	runTestdata(t, []*Analyzer{Determinism}, "determinism", "td/internal/sim")
}

func TestHWBudget(t *testing.T) {
	runTestdata(t, []*Analyzer{HWBudget}, "hwbudget", "td/internal/core")
}

func TestSatWeights(t *testing.T) {
	runTestdata(t, []*Analyzer{SatWeights}, "satweights", "td/internal/cond")
}

func TestAtomics(t *testing.T) {
	runTestdata(t, []*Analyzer{Atomics}, "atomics", "td/internal/tracecache")
}

func TestHotAlloc(t *testing.T) {
	runTestdata(t, []*Analyzer{HotAlloc}, "hotalloc", "td/internal/core")
}

// TestScopeExcludesOtherPackages checks that path-scoped analyzers skip
// packages outside their scope: the determinism testdata (full of
// violations) must produce nothing when loaded as a non-results package.
func TestScopeExcludesOtherPackages(t *testing.T) {
	prog, err := LoadDir(filepath.Join("testdata", "determinism"), "td/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, []*Analyzer{Determinism})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("determinism ran outside its scope: %v", diags)
	}
}

// TestRepoClean runs the full suite over the real module: the tree must
// stay free of unsuppressed findings (this is the same gate make lint and
// CI enforce).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !d.Suppressed {
			t.Errorf("%s", d)
		}
	}
}
