package trace_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"blbp/internal/trace"
	"blbp/internal/wspec"
)

// TestWireFormatsGolden pins the bytes of both on-disk formats: the
// FNV-64a checksums of the BLBPTRC1 and SPL3 encodings of one fixed suite
// workload. The checksums were captured when the record-slice encoders
// still existed, so they also prove the columnar encoders write the same
// bytes.
func TestWireFormatsGolden(t *testing.T) {
	spec := wspec.Suite(4000)[0]
	cols := spec.Build()
	if spec.Name != "252.eon" || cols.Len() != 248 {
		t.Fatalf("fixture is %s with %d records, want 252.eon with 248", spec.Name, cols.Len())
	}
	sum := func(write func(io.Writer) error) string {
		h := fnv.New64a()
		if err := write(h); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	trc := sum(func(w io.Writer) error { return trace.Write(w, cols) })
	if want := "d503e9823a678139"; trc != want {
		t.Errorf("BLBPTRC1 checksum %s, want %s", trc, want)
	}
	hdr := trace.SpillHeader{Name: spec.Name, Seed: spec.Seed, Instructions: spec.Instructions, Fingerprint: spec.Fingerprint}
	spl := sum(func(w io.Writer) error { return trace.WriteSpillColumns(w, hdr, cols) })
	if want := "dfc79c40a370c392"; spl != want {
		t.Errorf("SPL3 checksum %s, want %s", spl, want)
	}
}
