package trace_test

import (
	"slices"
	"testing"

	"blbp/internal/trace"
	"blbp/internal/wspec"
)

// refStats is Analyze written the direct way: every record walked in order
// into a map of per-site target sets.
type refStats struct {
	instructions int64
	count        [trace.Return + 1]int64
	targets      map[uint64]map[uint64]bool
	execs        map[uint64]int64
}

func analyzeRef(c *trace.Columns) *refStats {
	s := &refStats{targets: map[uint64]map[uint64]bool{}, execs: map[uint64]int64{}}
	for i := 0; i < c.Len(); i++ {
		r := c.Record(i)
		s.instructions += int64(r.InstrBefore) + 1
		s.count[r.Type]++
		if !r.Type.IsIndirect() {
			continue
		}
		if s.targets[r.PC] == nil {
			s.targets[r.PC] = map[uint64]bool{}
		}
		s.targets[r.PC][r.Target] = true
		s.execs[r.PC]++
	}
	return s
}

func (s *refStats) polymorphicFraction() float64 {
	var poly, total int64
	for pc, n := range s.execs {
		total += n
		if len(s.targets[pc]) > 1 {
			poly += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(poly) / float64(total)
}

func (s *refStats) ccdf(max int) []float64 {
	counts := make([]int64, max+1)
	var total int64
	for pc, n := range s.execs {
		counts[min(len(s.targets[pc]), max)] += n
		total += n
	}
	out := make([]float64, max)
	if total == 0 {
		return out
	}
	var cum int64
	for x := max; x >= 1; x-- {
		cum += counts[x]
		out[x-1] = float64(cum) * 100 / float64(total)
	}
	return out
}

func (s *refStats) maxTargets() int {
	n := 0
	for _, set := range s.targets {
		n = max(n, len(set))
	}
	return n
}

// checkStatsMatchReference compares every Stats method on c with the map
// reference, exactly: both sides sum the same integers.
func checkStatsMatchReference(t *testing.T, c *trace.Columns) {
	t.Helper()
	got, want := trace.Analyze(c), analyzeRef(c)
	if got.Instructions != want.instructions {
		t.Errorf("%s: Instructions = %d, want %d", c.Name, got.Instructions, want.instructions)
	}
	var branches int64
	for bt := trace.CondDirect; bt <= trace.Return; bt++ {
		branches += want.count[bt]
		if got.Count[bt] != want.count[bt] {
			t.Errorf("%s: Count[%v] = %d, want %d", c.Name, bt, got.Count[bt], want.count[bt])
		}
		if want.instructions > 0 {
			if pk := float64(want.count[bt]) * 1000 / float64(want.instructions); got.PerKilo(bt) != pk {
				t.Errorf("%s: PerKilo(%v) = %v, want %v", c.Name, bt, got.PerKilo(bt), pk)
			}
		}
	}
	if got.BranchCount() != branches {
		t.Errorf("%s: BranchCount = %d, want %d", c.Name, got.BranchCount(), branches)
	}
	if ind := want.count[trace.IndirectJump] + want.count[trace.IndirectCall]; got.IndirectCount() != ind {
		t.Errorf("%s: IndirectCount = %d, want %d", c.Name, got.IndirectCount(), ind)
	}
	if got.StaticIndirectSites() != len(want.targets) {
		t.Errorf("%s: StaticIndirectSites = %d, want %d", c.Name, got.StaticIndirectSites(), len(want.targets))
	}
	if got.PolymorphicFraction() != want.polymorphicFraction() {
		t.Errorf("%s: PolymorphicFraction = %v, want %v", c.Name, got.PolymorphicFraction(), want.polymorphicFraction())
	}
	for _, m := range []int{1, 2, 4, 12, 64, 300} {
		if g, w := got.TargetCountCCDF(m), want.ccdf(m); !slices.Equal(g, w) {
			t.Errorf("%s: TargetCountCCDF(%d) = %v, want %v", c.Name, m, g, w)
		}
	}
	if got.MaxTargets() != want.maxTargets() {
		t.Errorf("%s: MaxTargets = %d, want %d", c.Name, got.MaxTargets(), want.maxTargets())
	}
}

// TestStatsMatchMapReference: on every trace of a small suite draw, and on
// a trace whose table passes 65,536 distinct records (so its index column
// is 4 bytes wide), Analyze's table-based per-site figures equal the map
// reference's.
func TestStatsMatchMapReference(t *testing.T) {
	for _, spec := range wspec.Suite(4000) {
		checkStatsMatchReference(t, spec.Build())
	}

	// Unique gaps make every conditional and every IndirectJump record a
	// distinct table entry; the IndirectCall records repeat a few entries
	// many times, so their sites sum the uses of shared entries.
	const n = 140_000
	wide := trace.NewColumns("wide", n)
	distinct := map[trace.Record]bool{}
	for i := 0; i < n; i++ {
		var r trace.Record
		switch i % 4 {
		case 0:
			r = trace.Record{PC: 0x500 + uint64(i%13)*4, Target: 0x600, InstrBefore: uint32(i), Type: trace.CondDirect, Taken: i%5 == 0}
		case 1:
			r = trace.Record{PC: 0x9000 + uint64(i%29)*8, Target: 0x100000 + uint64(i*31%(200+i%29))*16, InstrBefore: uint32(i), Type: trace.IndirectJump, Taken: true}
		case 2:
			r = trace.Record{PC: 0xA000 + uint64(i%7)*8, Target: 0x200000 + uint64(i%3)*64, InstrBefore: 5, Type: trace.IndirectCall, Taken: true}
		default:
			r = trace.Record{PC: 0xB000, Target: 0xC000, InstrBefore: 2, Type: trace.Return, Taken: true}
		}
		wide.Append(r)
		distinct[r] = true
	}
	if len(distinct) <= 1<<16 {
		t.Fatalf("wide fixture has %d distinct records, want more than 65,536", len(distinct))
	}
	checkStatsMatchReference(t, wide)
}
