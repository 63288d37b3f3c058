package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path"
	"path/filepath"
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
	args := []string{"-suppressed", "-exceptions", "../../ANALYSIS_EXCEPTIONS.md", "-dir", "../.."}
	if code := run(args, io.Discard); code != 0 {
		t.Fatalf("blbplint -suppressed -exceptions exited %d; want 0", code)
	}
}

// TestJSONRoundTrip writes the report over the repository exactly as make
// lint does and decodes it back through the published schema with unknown
// fields disallowed: every emitted field must be declared in
// analysis.JSONReport. The report must carry the schema version, paths
// relative to -dir, no unsuppressed finding, and one suppressed finding
// per row of ANALYSIS_EXCEPTIONS.md.
func TestJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root := filepath.Join("..", "..")
	out := filepath.Join(t.TempDir(), "lint.json")
	if code := run([]string{"-jsonout", out, "-dir", root}, io.Discard); code != 0 {
		t.Fatalf("blbplint -jsonout exited %d; want 0", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep analysis.JSONReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("decoding -jsonout report against the schema: %v", err)
	}
	if rep.Version != analysis.JSONVersion {
		t.Errorf("version = %d, want %d", rep.Version, analysis.JSONVersion)
	}
	suppressed := map[string]int{}
	for _, f := range rep.Findings {
		if f.File == "" || f.Line <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding with unset fields: %+v", f)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("file %q is absolute; want it relative to -dir", f.File)
		} else if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(f.File))); err != nil {
			t.Errorf("file %q does not resolve against -dir: %v", f.File, err)
		}
		if !f.Suppressed {
			t.Errorf("unsuppressed finding in the report: %+v", f)
			continue
		}
		suppressed[path.Base(f.File)+" "+f.Analyzer]++
	}
	entries, err := analysis.ParseExceptions(filepath.Join(root, "ANALYSIS_EXCEPTIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("ANALYSIS_EXCEPTIONS.md lists no suppressions")
	}
	for _, e := range entries {
		key := e.File + " " + e.Analyzer
		if suppressed[key] == 0 {
			t.Errorf("no suppressed finding in the report for (%s, %s), which ANALYSIS_EXCEPTIONS.md:%d lists", e.File, e.Analyzer, e.Line)
			continue
		}
		suppressed[key]--
	}
	for key, n := range suppressed {
		if n != 0 {
			t.Errorf("%d suppressed finding(s) for %s beyond ANALYSIS_EXCEPTIONS.md's rows", n, key)
		}
	}
}
