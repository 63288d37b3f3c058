package trace

import "testing"

// columnsOfTypes builds a trace whose records have the given types, each
// valid (unconditional records taken).
func columnsOfTypes(types ...BranchType) *Columns {
	c := NewColumns("runs", len(types))
	for i, bt := range types {
		c.Append(Record{PC: 0x400000 + uint64(i)*4, Target: 0x500000, Type: bt, Taken: true})
	}
	return c
}

// TestRunEndAndSegments checks that RunEnd finds the end of the maximal
// same-type run from every record, and that Segments tiles [0, Len) with
// maximal runs in order.
func TestRunEndAndSegments(t *testing.T) {
	long := make([]BranchType, 1000)
	for i := range long {
		long[i] = IndirectJump
	}
	cases := []struct {
		name  string
		types []BranchType
		runs  int
	}{
		{"empty", nil, 0},
		{"one record", []BranchType{Return}, 1},
		{"one long run", long, 1},
		{"alternating", []BranchType{CondDirect, IndirectCall, CondDirect, IndirectCall, CondDirect}, 5},
		{"mixed", []BranchType{CondDirect, CondDirect, Return, UncondDirect, UncondDirect, UncondDirect, CondDirect}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := columnsOfTypes(tc.types...)
			for i := range tc.types {
				want := i + 1
				for want < len(tc.types) && tc.types[want] == tc.types[i] {
					want++
				}
				if got := c.RunEnd(i); got != want {
					t.Errorf("RunEnd(%d) = %d, want %d", i, got, want)
				}
			}
			segs := c.Segments()
			if len(segs) != tc.runs || cap(segs) != tc.runs {
				t.Errorf("Segments() has length %d and capacity %d, want %d runs", len(segs), cap(segs), tc.runs)
			}
			next := 0
			for k, s := range segs {
				if s.Start != next || s.End <= s.Start || s.End > c.Len() {
					t.Fatalf("segment %d = %+v does not continue the tiling at %d", k, s, next)
				}
				for i := s.Start; i < s.End; i++ {
					if tc.types[i] != s.Type {
						t.Errorf("segment %d = %+v holds record %d of type %v", k, s, i, tc.types[i])
					}
				}
				if k > 0 && segs[k-1].Type == s.Type {
					t.Errorf("segments %d and %d are both %v: not maximal", k-1, k, s.Type)
				}
				next = s.End
			}
			if next != c.Len() {
				t.Errorf("segments end at %d, trace has %d records", next, c.Len())
			}
		})
	}
}
