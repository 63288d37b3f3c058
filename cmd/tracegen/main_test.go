package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blbp/internal/trace"
	"blbp/internal/tracecache"
	"blbp/internal/wspec"
)

func TestListRuns(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatalf("list: %v", err)
	}
}

func TestGenAndInspect(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "eon.trc")
	if err := run([]string{"gen", "-workload", "252.eon", "-base", "20000", "-out", path}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
	if err := run([]string{"inspect", path}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
}

func TestGenDefaultsOutputName(t *testing.T) {
	dir := t.TempDir()
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	if err := run([]string{"gen", "-workload", "403.gcc-1", "-base", "10000"}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if _, err := os.Stat("403.gcc-1.trc"); err != nil {
		t.Fatalf("default output file not created: %v", err)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus"},
		{"gen"},                              // no workload
		{"gen", "-workload", "nope"},         // unknown workload
		{"inspect"},                          // missing file arg
		{"inspect", "/nonexistent/file.trc"}, // unreadable
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestInspectRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk.trc")
	if err := os.WriteFile(path, []byte("this is not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"inspect", path}); err == nil {
		t.Error("inspect accepted garbage")
	}
}

// TestGenFileServesThreeReaders writes one workload with gen and reads the
// file back three ways: as an SPL3 file carrying the spec's identity, as
// the source of a replay spec, and as a trace cache spill file that serves
// the spec without running its generator.
func TestGenFileServesThreeReaders(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "eon.trc")
	if err := run([]string{"gen", "-workload", "252.eon", "-base", "4000", "-out", path}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	spec := wspec.Suite(4000)[0]
	if spec.Name != "252.eon" {
		t.Fatalf("suite starts with %s, want 252.eon", spec.Name)
	}
	want := spec.Build()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	h, got, err := trace.ReadSpillColumns(f)
	f.Close()
	if err != nil {
		t.Fatalf("decoding the gen file: %v", err)
	}
	wantHeader := spec.Identity().SpillHeader()
	wantHeader.Records = int64(want.Len())
	if h != wantHeader {
		t.Errorf("header %+v, want the spec's identity %+v", h, wantHeader)
	}
	sameRecords(t, "decoded file", got, want)

	ws, err := wspec.Decode([]byte(`{"name": "eon-replay", "generator": {"kind": "replay", "path": "` + path + `"}}`))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := wspec.Compile(*ws)
	if err != nil {
		t.Fatalf("compiling a replay of the gen file: %v", err)
	}
	replayed := rs.Build()
	if replayed.Name != "eon-replay" {
		t.Errorf("replayed trace is named %q", replayed.Name)
	}
	replayed.Name = want.Name
	sameRecords(t, "replay", replayed, want)

	spillDir := t.TempDir()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spillDir, "eon.blbptrc"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := tracecache.New(tracecache.Config{SpillDir: spillDir})
	defer c.Close()
	sameRecords(t, "cache entry", c.Get(spec).Columns(), want)
	if st := c.Stats(); st.Builds != 0 || st.SpillLoads != 1 || st.SpillErrors != 0 {
		t.Errorf("cache served the gen file with %s, want 0 builds and 1 spill load", st)
	}
}

// sameRecords fails t unless got holds want's name and records.
func sameRecords(t *testing.T, what string, got, want *trace.Columns) {
	t.Helper()
	if got.Name != want.Name || got.Len() != want.Len() {
		t.Fatalf("%s: %s with %d records, want %s with %d", what, got.Name, got.Len(), want.Name, want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Record(i) != want.Record(i) {
			t.Fatalf("%s: record %d is %+v, want %+v", what, i, got.Record(i), want.Record(i))
		}
	}
}

// TestInspectRefusesOldFormat: a file in BLBPTRC1, the format tracegen
// wrote before SPL3, is refused as not-SPL3 with a pointer to gen.
func TestInspectRefusesOldFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.trc")
	// Magic, name "wl", one taken CondDirect record: 3 instructions before,
	// PC 0x400000, target 0x400020.
	old := []byte("BLBPTRC1\x02wl\x01\x08\x03\x80\x80\x80\x02\x20")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"inspect", path})
	if !errors.Is(err, trace.ErrBadSpillMagic) {
		t.Fatalf("inspect of a BLBPTRC1 file: err = %v, want ErrBadSpillMagic", err)
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "tracegen gen") {
		t.Errorf("error %q should name the file and say to regenerate it with tracegen gen", err)
	}
}
