package trace

import (
	"fmt"
	"math"
	"unsafe"
)

// Columns is the in-memory trace: the table of its distinct records plus
// one index per record into that table. CBP-5's BT9 traces have the same
// shape (each edge listed once, then the run as a sequence of edge ids). A
// generator's trace holds about a thousand distinct records, branch and
// gap alike, however many records it has, so a record costs its 2-byte
// index and the table next to it is a few tens of kilobytes. The index is
// a uint16 until the table passes 65,536 entries; the record that passes
// it, whether Append or the SPL3 decoder meets it, widens that trace's
// index once to a uint32. A user spec can reach that width; no suite trace
// does.
//
// Every reader goes through At, which picks the width, or, for RunEnd's
// scan, through one loop built for each width, so the two widths fork no
// replay path. The layout serves the replay hot path: `sim` walks
// millions of records per pass, and RunEnd lets replay loops find the
// maximal same-type runs as they go, hoisting the type dispatch (and any
// per-class interface assertions) out of the per-record path. Record(i)
// copies one record out for cold paths.
//
// The runs are maximal runs of identical BranchType, not per-class index
// lists, on purpose: predictors are stateful and must observe the
// interleaved record stream in original order, so the only reordering-free
// decomposition is by runs. Replaying the runs in order visits every record
// exactly once in trace order. No segmentation is stored: at about 1.6
// records per run it would cost more bytes than the index column.
//
// A workload generator and the SPL3 decoder each build into a scratch
// Columns they recycle and publish Detach's exactly sized copy. A published
// trace, like one a caller fills through Append, is read-only: At returns
// a pointer into the shared table, and callers must not mutate it. A
// successful Validate is cached so repeated passes skip the check.
type Columns struct {
	// Name identifies the workload the trace came from.
	Name string

	idx16 []uint16 // record i is table[idx16[i]] while the table fits a uint16 index
	idx32 []uint32 // record i is table[idx32[i]] once it has not; idx16 is then nil
	table []Record // the distinct records, in first-seen order
	slots []uint32 // intern's open-addressing index: table index + 1, 0 = empty

	counts       [numBranchTypes]int64
	instructions int64

	// validated caches a successful Validate; Append clears it.
	validated bool
}

// tableEntryBytes is the size of one table entry, a Record with its padding.
const tableEntryBytes = int64(unsafe.Sizeof(Record{}))

// Segment is one maximal run of same-typed records: indices [Start, End).
type Segment struct {
	Start, End int
	Type       BranchType
}

// NewColumns returns an empty columnar trace with capacity for n records.
func NewColumns(name string, n int) *Columns {
	c := &Columns{Name: name}
	c.Grow(n)
	return c
}

// Grow ensures capacity for n records, reallocating the index column at
// most once, to exactly n (the length stays unchanged). A caller that knows
// a trace's final length calls Grow with it rather than leave Append to
// double the column as it fills. The table is not reserved: its size
// depends on the records, not their count, and it too grows by doubling as
// new records arrive.
func (c *Columns) Grow(n int) {
	if n <= cap(c.idx16)+cap(c.idx32) {
		return
	}
	if c.idx32 != nil {
		c.idx32 = append(make([]uint32, 0, n), c.idx32...)
	} else {
		c.idx16 = append(make([]uint16, 0, n), c.idx16...)
	}
}

// Bytes returns the heap bytes the trace's arrays hold: capacity times
// element size, summed over the index column, the table and its interning
// index.
func (c *Columns) Bytes() int64 {
	return int64(cap(c.table))*tableEntryBytes + int64(cap(c.idx16))*2 + int64(cap(c.idx32)+cap(c.slots))*4
}

// Len returns the number of records.
func (c *Columns) Len() int { return len(c.idx16) + len(c.idx32) }

// Instructions returns the total instruction count (InstrBefore sums plus
// one instruction per branch record), maintained incrementally.
func (c *Columns) Instructions() int64 { return c.instructions }

// Count returns the dynamic record count of the given branch type.
func (c *Columns) Count(t BranchType) int64 {
	if !t.Valid() {
		return 0
	}
	return c.counts[t]
}

// At returns record i's table entry, shared by every record equal to it;
// callers must not mutate it. It reads the index column at whichever width
// the trace has.
func (c *Columns) At(i int) *Record {
	if c.idx32 != nil {
		return &c.table[c.idx32[i]]
	}
	return &c.table[c.idx16[i]]
}

// InstrBefore returns record i's count of non-branch instructions before
// its branch.
func (c *Columns) InstrBefore(i int) uint32 { return c.At(i).InstrBefore }

// Taken returns record i's outcome bit.
func (c *Columns) Taken(i int) bool { return c.At(i).Taken }

// Record returns a copy of record i (for tests and cold paths; hot loops
// read through At).
func (c *Columns) Record(i int) Record { return *c.At(i) }

// RunEnd returns the end of the maximal same-type run that starts at record
// i (0 <= i < Len): the first index after i whose type differs from record
// i's, or Len. Replay loops find the runs as they go, one RunEnd per run.
func (c *Columns) RunEnd(i int) int {
	if c.idx32 != nil {
		return runEnd(c.table, c.idx32, i)
	}
	return runEnd(c.table, c.idx16, i)
}

// runEnd is RunEnd's scan, built for each index width so that the width is
// tested once per run rather than once per record.
func runEnd[I uint16 | uint32](table []Record, idx []I, i int) int {
	t := table[idx[i]].Type
	j := i + 1
	for j < len(idx) && table[idx[j]].Type == t {
		j++
	}
	return j
}

// Segments derives the trace's maximal same-type runs in order, tiling
// [0, Len). It is computed on demand, not stored: the runs are counted
// first so the result is allocated once, at its exact size.
func (c *Columns) Segments() []Segment {
	n := 0
	for i := 0; i < c.Len(); i = c.RunEnd(i) {
		n++
	}
	segs := make([]Segment, 0, n)
	for i := 0; i < c.Len(); {
		end := c.RunEnd(i)
		segs = append(segs, Segment{Start: i, End: end, Type: c.At(i).Type})
		i = end
	}
	return segs
}

// Append adds one record, interning it in the table and maintaining the
// per-class counts and the instruction total incrementally. It clears the
// cached validation (the record is not checked here).
func (c *Columns) Append(r Record) {
	if n := c.Len(); n == cap(c.idx16)+cap(c.idx32) {
		c.Grow(max(64, 2*n))
	}
	k := c.intern(r)
	if c.idx32 == nil && k > math.MaxUint16 {
		c.widen()
	}
	if c.idx32 != nil {
		c.idx32 = append(c.idx32, k)
	} else {
		c.idx16 = append(c.idx16, uint16(k))
	}
	if r.Type.Valid() {
		c.counts[r.Type]++
	}
	c.instructions += int64(r.InstrBefore) + 1
	c.validated = false
}

// Detach moves the trace built so far into a new Columns that holds
// exactly its records: the index column at its length and at the width its
// table needs, the table at its entry count, and no interning index (a
// later Append builds one). c is left empty for its next trace, under the
// same name, with the capacity of its arrays kept, so a scratch trace that
// is reused allocates each trace's arrays once, at their final size, and
// grows its own only for a trace larger than any before. The copies are made at
// their exact length rather than cloned, since a clone's capacity rounds up
// to the allocator's size class and Bytes would count the slack.
func (c *Columns) Detach() *Columns {
	out := &Columns{
		Name:         c.Name,
		table:        make([]Record, len(c.table)),
		counts:       c.counts,
		instructions: c.instructions,
		validated:    c.validated,
	}
	copy(out.table, c.table)
	switch {
	case len(c.table) > 1<<16:
		out.idx32 = make([]uint32, len(c.idx32))
		copy(out.idx32, c.idx32)
	case c.idx32 != nil: // a scratch widened by an earlier trace
		out.idx16 = make([]uint16, len(c.idx32))
		for i, k := range c.idx32 {
			out.idx16[i] = uint16(k)
		}
	default:
		out.idx16 = make([]uint16, len(c.idx16))
		copy(out.idx16, c.idx16)
	}
	c.reset()
	return out
}

// reset empties c for its next trace, keeping its name and its arrays'
// capacity. A widened index column stays wide, so a scratch that meets one
// wide trace after another reuses its column; Detach narrows the copy of
// each trace whose table fits a 2-byte index.
func (c *Columns) reset() {
	c.idx16, c.idx32 = c.idx16[:0], c.idx32[:0]
	c.table = c.table[:0]
	clear(c.slots)
	c.counts, c.instructions, c.validated = [numBranchTypes]int64{}, 0, false
}

// widen moves the index column from two bytes to four per record, at the
// same length and capacity. It runs at most once per trace, when the table
// passes 65,536 entries.
func (c *Columns) widen() {
	wide := make([]uint32, len(c.idx16), cap(c.idx16))
	for i, k := range c.idx16 {
		wide[i] = uint32(k)
	}
	c.idx16, c.idx32 = nil, wide
}

// intern returns r's index in the table, adding r on first sight. The table
// is indexed by a power-of-two array of slots, searched by linear probing
// and rebuilt, at least twice as large, when half full or missing (Detach
// drops it). The table itself doubles when full: append's 1.25× steps
// would allocate several times the final table for a trace whose records
// keep differing. An index is below the record count, which the decoders
// cap at 2^32, so it fits a uint32; only a trace of 2^32 records that are
// all distinct would wrap a slot's index + 1, and it panics instead.
func (c *Columns) intern(r Record) uint32 {
	if 2*len(c.table) >= len(c.slots) {
		n := max(64, 2*len(c.slots))
		for 2*len(c.table) >= n {
			n *= 2
		}
		c.slots = make([]uint32, n)
		for k := range c.table {
			*c.slot(&c.table[k]) = uint32(k) + 1
		}
	}
	s := c.slot(&r)
	if *s == 0 {
		if len(c.table) == cap(c.table) {
			c.table = append(make([]Record, 0, max(16, 2*cap(c.table))), c.table...)
		}
		c.table = append(c.table, r)
		if *s = uint32(len(c.table)); *s == 0 {
			panic("trace: more than 2^32-1 distinct records")
		}
	}
	return *s - 1
}

// slot returns the slot holding r's table index, or the empty slot where
// it belongs.
func (c *Columns) slot(r *Record) *uint32 {
	mask := uint64(len(c.slots) - 1)
	h := r.PC*0x9e3779b97f4a7c15 ^ r.Target ^ uint64(r.InstrBefore)<<32 ^ uint64(r.Type)<<8
	if r.Taken {
		h ^= 1
	}
	h *= 0xbf58476d1ce4e5b9
	i := (h ^ h>>32) & mask
	for c.slots[i] != 0 && c.table[c.slots[i]-1] != *r {
		i = (i + 1) & mask
	}
	return &c.slots[i]
}

// Validate checks every table entry once for internal consistency — the
// same two conditions as Record.Validate — and names the first record that
// uses a bad entry. Entries are in first-seen order, so the first bad
// entry's first use is the trace's first bad record. A successful result
// is cached; Append clears it.
func (c *Columns) Validate() error {
	if c.validated {
		return nil
	}
	for k := range c.table {
		bad := &c.table[k]
		if err := bad.Validate(); err != nil {
			i := 0
			for c.At(i) != bad {
				i++
			}
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	c.validated = true
	return nil
}
