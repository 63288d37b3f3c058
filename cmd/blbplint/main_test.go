package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blbp/internal/analysis"
)

// TestRepoIsLintClean runs the multichecker exactly as make lint does and
// requires a zero exit over the whole module.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	if code := run([]string{"-dir", "../.."}, os.Stdout); code != 0 {
		t.Fatalf("blbplint over the repository exited %d; want 0", code)
	}
}

// TestSuppressedListing checks that -suppressed keeps the exit status at
// zero and that the exceptions cross-check passes on the committed
// ANALYSIS_EXCEPTIONS.md: audited exceptions must not fail the build.
func TestSuppressedListing(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	args := []string{"-suppressed", "-exceptions", "../../ANALYSIS_EXCEPTIONS.md", "-dir", "../.."}
	if code := run(args, devnull); code != 0 {
		t.Fatalf("blbplint -suppressed -exceptions exited %d; want 0", code)
	}
}

// TestJSONRoundTrip decodes blbplint -json output back through the
// published schema with unknown fields disallowed: every emitted field
// must be declared in analysis.JSONReport, and the report must carry the
// schema version and real findings.
func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	code := run([]string{
		"-json",
		"-aspath", "td/internal/sim",
		filepath.Join("..", "..", "internal", "analysis", "testdata", "determinism"),
	}, &buf)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (the determinism fixture is full of findings); output: %s", code, buf.String())
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	var rep analysis.JSONReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("decoding -json output against the schema: %v", err)
	}
	if rep.Version != analysis.JSONVersion {
		t.Errorf("version = %d, want %d", rep.Version, analysis.JSONVersion)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings in the report")
	}
	for _, f := range rep.Findings {
		if f.File == "" || f.Line <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding with unset fields: %+v", f)
		}
	}
}

// TestFixApplies runs -fix on a scratch copy of the autofix fixture: all
// findings must be fixed, the result must re-lint clean, and the original
// fixture must be untouched.
func TestFixApplies(t *testing.T) {
	src := filepath.Join("..", "..", "internal", "analysis", "testdata", "fix", "fix.go")
	orig, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	// The scratch copy must live inside the module so the fix-inserted
	// blbp/internal/threshold import resolves on re-lint; a dot-directory
	// under testdata is invisible to every ./... walk.
	base := filepath.Join("..", "..", "internal", "analysis", "testdata")
	dir, err := os.MkdirTemp(base, ".fixsmoke-test-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), orig, 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	code := run([]string{"-fix", "-aspath", "tdfix/internal/cond", dir}, &buf)
	if code != 0 {
		t.Fatalf("-fix exit code = %d, want 0 (all findings fixable); output: %s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "applied 4 fixes") {
		t.Errorf("want 4 applied fixes (1 mask + 3 saturations), got: %s", buf.String())
	}

	fixed, err := os.ReadFile(filepath.Join(dir, "fix.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"blbp/internal/threshold",
		"threshold.SatInc8(c.conf, 127)",
		"threshold.SatIncU8(c.hits[i], 255)",
		"threshold.SatDec8(c.conf, -127)",
		"pc&(1024 - 1)",
	} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("fixed file missing %q", want)
		}
	}

	buf.Reset()
	if code := run([]string{"-aspath", "tdfix/internal/cond", dir}, &buf); code != 0 {
		t.Errorf("re-lint after -fix: exit %d, output: %s", code, buf.String())
	}

	after, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, after) {
		t.Error("-fix modified the original fixture instead of the copy")
	}
}

// TestScopeOverride points the determinism scope away from the fixture's
// path: the same package that fails in TestJSONRoundTrip must pass
// untouched.
func TestScopeOverride(t *testing.T) {
	var buf bytes.Buffer
	code := run([]string{
		"-aspath", "td/internal/sim",
		"-scope", "determinism=internal/nowhere",
		filepath.Join("..", "..", "internal", "analysis", "testdata", "determinism"),
	}, &buf)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 with determinism scoped away; output: %s", code, buf.String())
	}
}

// TestScopeRejectsUnknownAnalyzer checks that a misspelled -scope name is a
// usage error (exit 2, known names listed) instead of a silent no-op that
// leaves the intended analyzer running at its default scope.
func TestScopeRejectsUnknownAnalyzer(t *testing.T) {
	var buf bytes.Buffer
	code := run([]string{
		"-aspath", "td/internal/sim",
		"-scope", "determinsm=internal/nowhere",
		filepath.Join("..", "..", "internal", "analysis", "testdata", "determinism"),
	}, &buf)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 for an unknown analyzer name; output: %s", code, buf.String())
	}
	err := (&scopeFlag{m: map[string][]string{}}).Set("determinsm=internal/nowhere")
	if err == nil {
		t.Fatal("Set accepted an unknown analyzer name")
	}
	for _, a := range analysis.All() {
		if !strings.Contains(err.Error(), a.Name) {
			t.Errorf("error %q does not list known analyzer %s", err, a.Name)
		}
	}
}
