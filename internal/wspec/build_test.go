package wspec

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"blbp/internal/trace"
	"blbp/internal/workload"
)

// lenBytes is what c's arrays would occupy at exactly their lengths: the
// floor Columns.Bytes (capacities) is measured against.
func lenBytes(c *trace.Columns) int64 {
	segBytes := int64(reflect.TypeOf(trace.Segment{}).Size())
	return int64(len(c.PC())+len(c.Target())+len(c.TakenWords()))*8 + int64(len(c.InstrBefore()))*4 +
		int64(len(c.Types())) + int64(len(c.Segments()))*segBytes
}

// recomputeSegments derives the class segmentation from the type column
// alone: the maximal runs of equal types.
func recomputeSegments(types []uint8) []trace.Segment {
	var segs []trace.Segment
	for i, t := range types {
		if n := len(segs); n > 0 && segs[n-1].Type == trace.BranchType(t) {
			segs[n-1].End = i + 1
		} else {
			segs = append(segs, trace.Segment{Start: i, End: i + 1, Type: trace.BranchType(t)})
		}
	}
	return segs
}

// TestSuiteBuildAllocatesOnce builds the 88-workload suite at the scale
// results/ is made at and checks that the generators allocate each trace's
// columns about once, at close to their final size: the whole build
// allocates at most 1.25× the bytes the built traces occupy, each trace's
// capacity stays within 1.15× of its length, and the segmentation Append
// maintained equals one recomputed from the types.
func TestSuiteBuildAllocatesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full suite at base 600000")
	}
	var before, after runtime.MemStats
	var alloc, held int64
	for _, s := range Suite(600_000) {
		runtime.ReadMemStats(&before)
		c := s.Build()
		runtime.ReadMemStats(&after)
		alloc += int64(after.TotalAlloc - before.TotalAlloc)
		held += c.Bytes()
		if c.Bytes() > lenBytes(c)*115/100 {
			t.Errorf("%s: %d bytes of capacity for %d bytes of records and segments (> 1.15×)", s.Name, c.Bytes(), lenBytes(c))
		}
		if got, want := c.Segments(), recomputeSegments(c.Types()); !slices.Equal(got, want) {
			t.Errorf("%s: %d segments, recomputation gives %d", s.Name, len(got), len(want))
		}
	}
	t.Logf("building the suite allocated %d bytes for %d bytes of traces (%.2f×)", alloc, held, float64(alloc)/float64(held))
	if alloc > held*125/100 {
		t.Errorf("building the suite allocated %.2f× the traces' bytes, want ≤ 1.25×", float64(alloc)/float64(held))
	}
}

// BenchmarkSpecBuild builds one LONG suite workload at base 600000; B/op
// against the trace's Bytes shows how often the generator reallocated.
func BenchmarkSpecBuild(b *testing.B) {
	var spec workload.Spec
	for _, s := range Suite(600_000) {
		if s.Category == workload.CatServerLong {
			spec = s
			break
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if spec.Build().Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}
