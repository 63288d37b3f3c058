package trace

import "testing"

func TestBranchTypeString(t *testing.T) {
	cases := []struct {
		bt   BranchType
		want string
	}{
		{CondDirect, "cond"},
		{UncondDirect, "jump"},
		{DirectCall, "call"},
		{IndirectJump, "ind-jump"},
		{IndirectCall, "ind-call"},
		{Return, "return"},
		{BranchType(17), "BranchType(17)"},
	}
	for _, c := range cases {
		if got := c.bt.String(); got != c.want {
			t.Errorf("BranchType(%d).String() = %q, want %q", c.bt, got, c.want)
		}
	}
}

func TestBranchTypeClassification(t *testing.T) {
	cases := []struct {
		bt                          BranchType
		indirect, call, cond, valid bool
	}{
		{CondDirect, false, false, true, true},
		{UncondDirect, false, false, false, true},
		{DirectCall, false, true, false, true},
		{IndirectJump, true, false, false, true},
		{IndirectCall, true, true, false, true},
		{Return, false, false, false, true},
		{BranchType(6), false, false, false, false},
	}
	for _, c := range cases {
		if got := c.bt.IsIndirect(); got != c.indirect {
			t.Errorf("%v.IsIndirect() = %v, want %v", c.bt, got, c.indirect)
		}
		if got := c.bt.IsCall(); got != c.call {
			t.Errorf("%v.IsCall() = %v, want %v", c.bt, got, c.call)
		}
		if got := c.bt.IsConditional(); got != c.cond {
			t.Errorf("%v.IsConditional() = %v, want %v", c.bt, got, c.cond)
		}
		if got := c.bt.Valid(); got != c.valid {
			t.Errorf("%v.Valid() = %v, want %v", c.bt, got, c.valid)
		}
	}
}

func TestRecordInstructions(t *testing.T) {
	r := Record{InstrBefore: 7}
	if got := r.Instructions(); got != 8 {
		t.Errorf("Instructions() = %d, want 8", got)
	}
	r.InstrBefore = 0
	if got := r.Instructions(); got != 1 {
		t.Errorf("Instructions() = %d, want 1", got)
	}
}

func TestRecordValidate(t *testing.T) {
	good := Record{PC: 0x1000, Target: 0x2000, Type: IndirectJump, Taken: true}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate() on valid record: %v", err)
	}
	notTakenCond := Record{PC: 0x1000, Target: 0x1004, Type: CondDirect, Taken: false}
	if err := notTakenCond.Validate(); err != nil {
		t.Errorf("not-taken conditional should validate: %v", err)
	}
	badType := Record{Type: BranchType(9), Taken: true}
	if err := badType.Validate(); err == nil {
		t.Error("Validate() accepted invalid branch type")
	}
	notTakenJump := Record{Type: UncondDirect, Taken: false}
	if err := notTakenJump.Validate(); err == nil {
		t.Error("Validate() accepted not-taken unconditional jump")
	}
}

func TestTraceInstructions(t *testing.T) {
	tr := NewColumns("t", 0)
	tr.Append(Record{InstrBefore: 4, Type: CondDirect, Taken: true, PC: 1, Target: 2})
	tr.Append(Record{InstrBefore: 0, Type: Return, Taken: true, PC: 3, Target: 4})
	if got := tr.Instructions(); got != 6 {
		t.Errorf("Instructions() = %d, want 6", got)
	}
}
