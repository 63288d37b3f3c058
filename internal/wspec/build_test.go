package wspec

import (
	"runtime"
	"testing"

	"blbp/internal/trace"
	"blbp/internal/workload"
)

// lenBytes is what c's record columns and edge table would occupy at
// exactly their lengths: the floor Columns.Bytes (capacities, plus the
// interning index) is measured against. The gap column takes one byte per
// record unless some gap exceeds 255, and then four.
func lenBytes(c *trace.Columns) int64 {
	gapBytes := int64(1)
	for i := 0; i < c.Len(); i++ {
		if c.InstrBefore(i) > 0xff {
			gapBytes = 4
			break
		}
	}
	return int64(len(c.Edges()))*16 + int64(len(c.TakenWords()))*8 +
		int64(len(c.EdgeIndex()))*4 + int64(c.Len())*gapBytes + int64(len(c.Types()))
}

// maxSuiteBytesPerRecord bounds the built suite's Columns.Bytes per record.
// The four record columns take 6 bytes plus one taken bit per record (a
// 4-byte edge index, a 1-byte gap and a 1-byte type), and capacity slack and
// the per-trace edge tables (about a thousand edges each) add a little. A
// 4-byte gap column (9⅛ bytes per record) or an 8-byte PC or target column
// (17 bytes per record and up) would not fit.
const maxSuiteBytesPerRecord = 7

// TestSuiteBuildAllocatesOnce builds the 88-workload suite at the scale
// results/ is made at and checks that the generators allocate each trace's
// columns about once, at close to their final size, and that the traces
// hold only their records: the whole build allocates at most 1.25× the
// bytes the built traces occupy, each trace's capacity stays within 1.15×
// of its length, and the suite holds at most maxSuiteBytesPerRecord bytes
// per record.
func TestSuiteBuildAllocatesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full suite at base 600000")
	}
	var before, after runtime.MemStats
	var alloc, held, records int64
	for _, s := range Suite(600_000) {
		runtime.ReadMemStats(&before)
		c := s.Build()
		runtime.ReadMemStats(&after)
		alloc += int64(after.TotalAlloc - before.TotalAlloc)
		held += c.Bytes()
		records += int64(c.Len())
		if c.Bytes() > lenBytes(c)*115/100 {
			t.Errorf("%s: %d bytes of capacity for %d bytes of records (> 1.15×)", s.Name, c.Bytes(), lenBytes(c))
		}
	}
	t.Logf("building the suite allocated %d bytes for %d bytes of traces (%.2f×), %.2f bytes per record",
		alloc, held, float64(alloc)/float64(held), float64(held)/float64(records))
	if alloc > held*125/100 {
		t.Errorf("building the suite allocated %.2f× the traces' bytes, want ≤ 1.25×", float64(alloc)/float64(held))
	}
	if held > records*maxSuiteBytesPerRecord {
		t.Errorf("the suite's traces hold %.2f bytes per record, want ≤ %d", float64(held)/float64(records), maxSuiteBytesPerRecord)
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
