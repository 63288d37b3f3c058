package trace

import (
	"math"
	"testing"
)

func statsFixture() *Stats {
	tr := NewColumns("fix", 0)
	// 10 conditional branches, 9 instructions before each => 100 instructions.
	for i := 0; i < 10; i++ {
		tr.Append(Record{PC: 0x100, Target: 0x200, InstrBefore: 9, Type: CondDirect, Taken: true})
	}
	// Indirect site A: monomorphic, executed 4 times.
	for i := 0; i < 4; i++ {
		tr.Append(Record{PC: 0xA00, Target: 0x1000, Type: IndirectCall, Taken: true})
	}
	// Indirect site B: 3 targets, executed 6 times.
	targets := []uint64{0x2000, 0x3000, 0x4000, 0x2000, 0x3000, 0x2000}
	for _, tgt := range targets {
		tr.Append(Record{PC: 0xB00, Target: tgt, Type: IndirectJump, Taken: true})
	}
	return Analyze(tr)
}

func TestStatsCounts(t *testing.T) {
	s := statsFixture()
	if s.Instructions != 110 {
		t.Errorf("Instructions = %d, want 110", s.Instructions)
	}
	if s.Count[CondDirect] != 10 {
		t.Errorf("cond count = %d, want 10", s.Count[CondDirect])
	}
	if got := s.IndirectCount(); got != 10 {
		t.Errorf("IndirectCount = %d, want 10", got)
	}
	if got := s.BranchCount(); got != 20 {
		t.Errorf("BranchCount = %d, want 20", got)
	}
	if got := s.StaticIndirectSites(); got != 2 {
		t.Errorf("StaticIndirectSites = %d, want 2", got)
	}
}

func TestPerKilo(t *testing.T) {
	s := statsFixture()
	want := 10.0 * 1000 / 110
	if got := s.PerKilo(CondDirect); math.Abs(got-want) > 1e-9 {
		t.Errorf("PerKilo(cond) = %v, want %v", got, want)
	}
	empty := Analyze(NewColumns("", 0))
	if got := empty.PerKilo(CondDirect); got != 0 {
		t.Errorf("PerKilo on empty trace = %v, want 0", got)
	}
}

func TestPolymorphicFraction(t *testing.T) {
	s := statsFixture()
	// Site B (6 execs, 3 targets) is polymorphic; site A (4 execs) is not.
	want := 6.0 / 10.0
	if got := s.PolymorphicFraction(); math.Abs(got-want) > 1e-9 {
		t.Errorf("PolymorphicFraction = %v, want %v", got, want)
	}
	empty := Analyze(NewColumns("", 0))
	if got := empty.PolymorphicFraction(); got != 0 {
		t.Errorf("PolymorphicFraction on empty trace = %v, want 0", got)
	}
}

func TestTargetCountCCDF(t *testing.T) {
	s := statsFixture()
	ccdf := s.TargetCountCCDF(5)
	if len(ccdf) != 5 {
		t.Fatalf("len(ccdf) = %d, want 5", len(ccdf))
	}
	// All 10 executions have >= 1 target; 6 of 10 have >= 2 and >= 3.
	wants := []float64{100, 60, 60, 0, 0}
	for i, want := range wants {
		if math.Abs(ccdf[i]-want) > 1e-9 {
			t.Errorf("ccdf[%d] = %v, want %v", i, ccdf[i], want)
		}
	}
	if got := s.TargetCountCCDF(0); got != nil {
		t.Errorf("TargetCountCCDF(0) = %v, want nil", got)
	}
}

func TestTargetCountCCDFClampsLargeSets(t *testing.T) {
	tr := NewColumns("", 0)
	for i := 0; i < 10; i++ {
		tr.Append(Record{PC: 0xC00, Target: uint64(0x1000 * (i + 1)), Type: IndirectJump, Taken: true})
	}
	s := Analyze(tr)
	ccdf := s.TargetCountCCDF(4)
	// The single site has 10 targets, clamped into the >= 4 bucket.
	for i, v := range ccdf {
		if v != 100 {
			t.Errorf("ccdf[%d] = %v, want 100", i, v)
		}
	}
}

func TestMaxTargets(t *testing.T) {
	s := statsFixture()
	if got := s.MaxTargets(); got != 3 {
		t.Errorf("MaxTargets = %d, want 3", got)
	}
}
