package trace

import (
	"bytes"
	"math"
	"testing"
)

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

// gapRecords returns n valid records whose gaps cycle through 0..255,
// except that record at, when at >= 0, has the gap wide.
func gapRecords(n, at int, wide uint32) []Record {
	recs := make([]Record, n)
	for i := range recs {
		bt := BranchType(i % numBranchTypes)
		recs[i] = Record{
			PC:          0x400000 + uint64(i%97)*4,
			Target:      0x500000 + uint64(i%5)*64,
			InstrBefore: uint32(i % 256),
			Type:        bt,
			Taken:       !bt.IsConditional() || i%3 != 0,
		}
	}
	if at >= 0 {
		recs[at].InstrBefore = wide
	}
	return recs
}

// encodeSpill returns c's SPL3 encoding.
func encodeSpill(t *testing.T, c *Columns) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSpillColumns(&buf, SpillHeader{Name: c.Name, Seed: 9, Instructions: c.Instructions()}, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGapColumnWidening builds traces whose first gap above 255 sits at the
// first record, inside the first SPL3 block, in the second block and at the
// last record, plus one with no such gap, each through Append and through
// an SPL3 round trip. Every record, the instruction total and the encoding
// must match a trace that holds 4-byte gaps from its first record, and
// Bytes must count 1 byte per record of gap column while every gap fits a
// byte and 4 after widening.
func TestGapColumnWidening(t *testing.T) {
	const block = spillBlockRecords
	cases := []struct {
		name  string
		n, at int
		wide  uint32
	}{
		{"no gap above 255", 2 * block, -1, 0},
		{"256 at record 0", 10, 0, 256},
		{"inside the first block", 3000, 1500, 300},
		{"inside the second block", block + 300, block + 100, 1000},
		{"2^32-1 inside the second block", 2*block + 5, block + 1, math.MaxUint32},
		{"256 at the last record", 2 * block, 2*block - 1, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := gapRecords(tc.n, tc.at, tc.wide)
			var instructions int64
			for _, r := range recs {
				instructions += int64(r.InstrBefore) + 1
			}
			// ref holds 4-byte gaps from the start, the layout every trace
			// had before the narrow column.
			ref := NewColumns("gaps", tc.n)
			ref.widen()
			for _, r := range recs {
				ref.Append(r)
			}
			want := encodeSpill(t, ref)
			_, decoded, err := ReadSpillColumns(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			gapBytes := int64(1)
			if tc.at >= 0 {
				gapBytes = 4
			}
			for _, got := range []struct {
				path string
				c    *Columns
			}{{"Append", columnsOf("gaps", recs...)}, {"SPL3", decoded}} {
				c := got.c
				for i, r := range recs {
					if c.Record(i) != r {
						t.Fatalf("%s: record %d = %+v, want %+v", got.path, i, c.Record(i), r)
					}
				}
				if c.Instructions() != instructions {
					t.Errorf("%s: Instructions() = %d, want %d", got.path, c.Instructions(), instructions)
				}
				if !bytes.Equal(encodeSpill(t, c), want) {
					t.Errorf("%s: the re-encoded bytes differ from the 4-byte column's", got.path)
				}
				// Both paths reserve exactly n records, so the record columns
				// hold 4 (edge index) + gapBytes + 1 (type) bytes per record
				// and one taken word per 64; the rest is the edge table.
				records := c.Bytes() - int64(cap(c.edges))*16 - int64(cap(c.slots))*4
				if want := int64(tc.n)*(4+gapBytes+1) + int64((tc.n+63)/64)*8; records != want {
					t.Errorf("%s: Bytes counts %d bytes of record columns, want %d (%d-byte gaps)", got.path, records, want, gapBytes)
				}
			}
		})
	}
}
