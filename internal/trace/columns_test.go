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

// distinctRecord is the record a test trace uses for distinct id k: every
// id gives a different valid record, of every type and of gaps from 0 to
// 299.
func distinctRecord(k int) Record {
	bt := BranchType(k % numBranchTypes)
	return Record{
		PC:          0x400000 + uint64(k)*4,
		Target:      0x500000 + uint64(k%5)*64,
		InstrBefore: uint32(k % 300),
		Type:        bt,
		Taken:       !bt.IsConditional() || k%3 != 0,
	}
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

// TestIndexColumnWidening builds traces of n records whose 65,537th
// distinct record, the first past a uint16 index, sits at record at: the
// earliest it can (record 65,536, the first of an SPL3 block), inside a
// block, in a later block, and at the last record, plus one whose table
// fills the uint16 range exactly and one of 2^32-1-instruction gaps. Each
// trace is built through Append and through an SPL3 round trip. Every
// record, the instruction total and the encoding must match a trace that
// holds a 4-byte index from its first record, and Bytes must count 2 bytes
// of index per record until the table passes 65,536 entries and 4 after.
func TestIndexColumnWidening(t *testing.T) {
	const narrow = 1 << 16
	cases := []struct {
		name  string
		n, at int // at < 0: no record past the uint16 range
		gap   uint32
	}{
		{"table of 65536 entries", narrow + 5000, -1, 0},
		{"at record 65536", narrow + 300, narrow, 0},
		{"inside a block", narrow + 3000, narrow + 1500, 0},
		{"in a later block", 2*narrow + 100, narrow + 9*spillBlockRecords + 7, 0},
		{"at the last record", narrow + 2*spillBlockRecords, narrow + 2*spillBlockRecords - 1, 0},
		{"gap of 2^32-1 in a later block", narrow + 9000, narrow + 8000, math.MaxUint32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Records before at cycle over the first 65,536 ids, record at is
			// id 65,536, and the records after it repeat earlier ids.
			recs := make([]Record, tc.n)
			for i := range recs {
				switch {
				case tc.at < 0 || i < tc.at:
					recs[i] = distinctRecord(i % narrow)
				case i == tc.at:
					recs[i] = distinctRecord(narrow)
					recs[i].InstrBefore = max(recs[i].InstrBefore, tc.gap)
				default:
					recs[i] = distinctRecord((i - tc.at) % (narrow + 1))
				}
			}
			var instructions int64
			for _, r := range recs {
				instructions += int64(r.InstrBefore) + 1
			}
			// ref holds a 4-byte index from the start.
			ref := NewColumns("wide", tc.n)
			ref.widen()
			for _, r := range recs {
				ref.Append(r)
			}
			want := encodeSpill(t, ref)
			_, decoded, err := ReadSpillColumns(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			idxBytes := int64(2)
			if tc.at >= 0 {
				idxBytes = 4
			}
			for _, got := range []struct {
				path string
				c    *Columns
			}{{"Append", columnsOf("wide", recs...)}, {"SPL3", decoded}} {
				c := got.c
				if c.Len() != tc.n {
					t.Fatalf("%s: %d records, want %d", got.path, c.Len(), tc.n)
				}
				for i, r := range recs {
					if c.Record(i) != r {
						t.Fatalf("%s: record %d = %+v, want %+v", got.path, i, c.Record(i), r)
					}
				}
				if c.Instructions() != instructions {
					t.Errorf("%s: Instructions() = %d, want %d", got.path, c.Instructions(), instructions)
				}
				if !bytes.Equal(encodeSpill(t, c), want) {
					t.Errorf("%s: the re-encoded bytes differ from the 4-byte index's", got.path)
				}
				// Both paths reserve exactly n records, so the index column
				// holds idxBytes per record; the rest is the table and its
				// interning index.
				index := c.Bytes() - int64(cap(c.table))*tableEntryBytes - int64(cap(c.slots))*4
				if want := int64(tc.n) * idxBytes; index != want {
					t.Errorf("%s: Bytes counts %d bytes of index, want %d (%d bytes per record)", got.path, index, want, idxBytes)
				}
			}
		})
	}
}

// TestDetach checks that Detach hands over exactly the records built so
// far and leaves the builder empty for its next trace, and that both can
// be appended to afterwards without sharing records: the detached trace
// rebuilds the interning index Detach dropped.
func TestDetach(t *testing.T) {
	first := make([]Record, 3000)
	for i := range first {
		first[i] = distinctRecord(i % 700)
	}
	builder := columnsOf("detach", first...)
	got := builder.Detach()
	if builder.Len() != 0 || builder.Instructions() != 0 || builder.Name != "detach" {
		t.Fatalf("builder after Detach holds %d records and %d instructions, named %q", builder.Len(), builder.Instructions(), builder.Name)
	}
	if got.Bytes() >= int64(len(first))*2+800*tableEntryBytes {
		t.Errorf("detached trace holds %d bytes for %d records of 700 distinct", got.Bytes(), len(first))
	}
	second := make([]Record, 500)
	for i := range second {
		second[i] = distinctRecord(1000 + i%300)
		builder.Append(second[i])
	}
	more := []Record{distinctRecord(5), distinctRecord(699), distinctRecord(5000)}
	for _, r := range more {
		got.Append(r)
	}
	want := append(append([]Record(nil), first...), more...)
	for _, tc := range []struct {
		c    *Columns
		recs []Record
	}{{got, want}, {builder, second}} {
		var instructions int64
		for i, r := range tc.recs {
			if tc.c.Record(i) != r {
				t.Fatalf("record %d = %+v, want %+v", i, tc.c.Record(i), r)
			}
			instructions += r.Instructions()
		}
		if tc.c.Len() != len(tc.recs) || tc.c.Instructions() != instructions {
			t.Errorf("%d records and %d instructions, want %d and %d", tc.c.Len(), tc.c.Instructions(), len(tc.recs), instructions)
		}
	}
	if len(got.table) != 701 {
		t.Errorf("detached trace's table holds %d entries after 2 repeats and 1 new record, want 701", len(got.table))
	}
}
