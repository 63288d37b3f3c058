package trace_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"blbp/internal/trace"
	"blbp/internal/wspec"
)

// TestWireFormatsGolden pins the bytes of the on-disk format: the FNV-64a
// checksum of the SPL3 encoding of one fixed suite workload under its spec
// identity. The checksum was captured when the record-slice encoder still
// existed, so it also proves the columnar encoder writes the same bytes.
func TestWireFormatsGolden(t *testing.T) {
	spec := wspec.Suite(4000)[0]
	cols := spec.Build()
	if spec.Name != "252.eon" || cols.Len() != 248 {
		t.Fatalf("fixture is %s with %d records, want 252.eon with 248", spec.Name, cols.Len())
	}
	h := fnv.New64a()
	if err := trace.WriteSpillColumns(h, spec.Identity().SpillHeader(), cols); err != nil {
		t.Fatal(err)
	}
	if spl, want := fmt.Sprintf("%016x", h.Sum64()), "dfc79c40a370c392"; spl != want {
		t.Errorf("SPL3 checksum %s, want %s", spl, want)
	}
}
