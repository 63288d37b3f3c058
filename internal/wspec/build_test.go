package wspec

import (
	"runtime"
	"testing"

	"blbp/internal/trace"
	"blbp/internal/workload"
)

// lenBytes is what c's index column and table would occupy at exactly
// their lengths: the floor Columns.Bytes (capacities, plus the interning
// index) is measured against. The index takes two bytes per record unless
// the table passes 65,536 entries, and then four; a table entry is a
// 24-byte Record.
func lenBytes(c *trace.Columns) int64 {
	distinct := make(map[trace.Record]struct{})
	for i := 0; i < c.Len(); i++ {
		distinct[c.Record(i)] = struct{}{}
	}
	indexBytes := int64(2)
	if len(distinct) > 1<<16 {
		indexBytes = 4
	}
	return int64(len(distinct))*24 + int64(c.Len())*indexBytes
}

// maxSuiteBytesPerRecord bounds the built suite's Columns.Bytes per record.
// The index column takes 2 bytes per record, and capacity slack and the
// per-trace tables (about a thousand records each) add a little. A 4-byte
// index (4 bytes per record and up) or per-record type, gap or taken
// columns would not fit.
const maxSuiteBytesPerRecord = 3

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
