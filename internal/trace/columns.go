package trace

import "fmt"

// Columns is the in-memory trace, stored columnar (structure-of-arrays):
// one parallel array per record field plus a packed taken bitset. A
// record's PC and target are stored once per trace, not once per record:
// the trace keeps a table of its distinct (PC, target) pairs, its edges,
// and each record holds a uint32 index into that table. A generator's
// trace has about a thousand edges however many records it holds, so the
// 4-byte index column stands in for two 8-byte address columns. The layout
// serves the replay hot path — `sim` walks millions of records per pass,
// and an array-of-structs layout would make every pass pay a 6-way type
// switch, a bounds-checked struct load, and a per-record Taken byte for
// fields most classes never touch. The columnar layout streams each field
// contiguously, and RunEnd lets replay loops find the maximal same-type
// runs in the type column as they go, hoisting the type dispatch (and any
// per-class interface assertions) out of the per-record path.
// Record(i) materializes one record for cold paths.
//
// The runs are maximal runs of identical BranchType, not per-class index
// lists, on purpose: predictors are stateful and must observe the
// interleaved record stream in original order, so the only reordering-free
// decomposition is by runs. Replaying the runs in order visits every record
// exactly once in trace order. No segmentation is stored: at about 1.6
// records per run it would cost more bytes than the edge index column.
//
// A Columns is built once (by a workload generator, a decoder, or Append)
// and is read-only afterwards: the accessor methods return the underlying
// arrays, and callers must not mutate them. A successful Validate is cached
// so repeated passes skip the check.
type Columns struct {
	// Name identifies the workload the trace came from.
	Name string

	edge        []uint32 // record i's PC and target are edges[edge[i]]
	instrBefore []uint32
	typ         []uint8
	taken       []uint64 // bitset, bit i = record i's outcome

	edges []Edge   // the distinct (PC, target) pairs, in first-seen order
	slots []uint32 // intern's open-addressing index: edge index + 1, 0 = empty

	counts       [numBranchTypes]int64
	instructions int64

	// validated caches a successful Validate; Append clears it.
	validated bool
}

// Edge is one distinct (PC, target) pair of a trace.
type Edge struct{ PC, Target uint64 }

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

// Grow ensures capacity for n records, reallocating each record column at
// most once, to exactly n (lengths stay unchanged). A caller that can
// estimate a trace's final length calls Grow with it rather than leave
// Append to grow the columns step by step. The edge table is not reserved:
// its size depends on the records, not their count, and it grows by
// doubling as edges arrive.
func (c *Columns) Grow(n int) {
	if n <= cap(c.typ) {
		return
	}
	c.edge = append(make([]uint32, 0, n), c.edge...)
	c.instrBefore = append(make([]uint32, 0, n), c.instrBefore...)
	c.typ = append(make([]uint8, 0, n), c.typ...)
	if words := (n + 63) / 64; cap(c.taken) < words {
		c.taken = append(make([]uint64, 0, words), c.taken...)
	}
}

// Bytes returns the heap bytes the trace's arrays hold: capacity times
// element size, summed over the four record columns, the edge table and
// its interning index.
func (c *Columns) Bytes() int64 {
	return int64(cap(c.edges))*16 + int64(cap(c.taken))*8 +
		int64(cap(c.edge)+cap(c.instrBefore)+cap(c.slots))*4 + int64(cap(c.typ))
}

// Len returns the number of records.
func (c *Columns) Len() int { return len(c.typ) }

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

// Edges, EdgeIndex, InstrBefore, Types and TakenWords return the
// underlying arrays (shared; callers must not mutate them): record i's PC
// and target are Edges()[EdgeIndex()[i]]. Hot loops hoist these calls and
// index the slices directly.
func (c *Columns) Edges() []Edge         { return c.edges }
func (c *Columns) EdgeIndex() []uint32   { return c.edge }
func (c *Columns) InstrBefore() []uint32 { return c.instrBefore }
func (c *Columns) Types() []uint8        { return c.typ }
func (c *Columns) TakenWords() []uint64  { return c.taken }

// RunEnd returns the end of the maximal same-type run that starts at record
// i (0 <= i < Len): the first index after i whose type differs from record
// i's, or Len. Replay loops find the runs as they go, one RunEnd per run.
func (c *Columns) RunEnd(i int) int {
	t := c.typ[i]
	j := i + 1
	for j < len(c.typ) && c.typ[j] == t {
		j++
	}
	return j
}

// Segments derives the trace's maximal same-type runs in order, tiling
// [0, Len). It is computed on demand, not stored: the runs are counted
// first so the result is allocated once, at its exact size.
func (c *Columns) Segments() []Segment {
	n := 0
	for i := 0; i < len(c.typ); i = c.RunEnd(i) {
		n++
	}
	segs := make([]Segment, 0, n)
	for i := 0; i < len(c.typ); {
		end := c.RunEnd(i)
		segs = append(segs, Segment{Start: i, End: end, Type: BranchType(c.typ[i])})
		i = end
	}
	return segs
}

// Taken returns record i's outcome bit.
func (c *Columns) Taken(i int) bool {
	return c.taken[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// Record materializes record i (a convenience for tests and cold paths; hot
// loops read the columns directly).
func (c *Columns) Record(i int) Record {
	e := c.edges[c.edge[i]]
	return Record{
		PC:          e.PC,
		Target:      e.Target,
		InstrBefore: c.instrBefore[i],
		Type:        BranchType(c.typ[i]),
		Taken:       c.Taken(i),
	}
}

// Append adds one record, interning its (PC, target) pair and maintaining
// the per-class counts and the instruction total incrementally. It clears
// the cached validation (the record is not checked here).
func (c *Columns) Append(r Record) {
	i := len(c.typ)
	c.edge = append(c.edge, c.intern(Edge{r.PC, r.Target}))
	c.instrBefore = append(c.instrBefore, r.InstrBefore)
	c.typ = append(c.typ, uint8(r.Type))
	if i&63 == 0 {
		c.taken = append(c.taken, 0)
	}
	if r.Taken {
		c.taken[uint(i)>>6] |= 1 << (uint(i) & 63)
	}
	if r.Type.Valid() {
		c.counts[r.Type]++
	}
	c.instructions += int64(r.InstrBefore) + 1
	c.validated = false
}

// intern returns e's index in the edge table, adding e on first sight. The
// table is indexed by a power-of-two array of slots, searched by linear
// probing and rebuilt at twice the size when half full. The table itself
// doubles when full: append's 1.25× steps would allocate several times the
// final table for a trace whose edges keep coming. An index is below the
// record count, which the decoders cap at 2^32, so it fits a uint32; only a
// trace of 2^32 records that are all distinct edges would wrap a slot's
// index + 1, and it panics instead.
func (c *Columns) intern(e Edge) uint32 {
	if 2*len(c.edges) >= len(c.slots) {
		c.slots = make([]uint32, max(64, 2*len(c.slots)))
		for k, old := range c.edges {
			*c.slot(old) = uint32(k) + 1
		}
	}
	s := c.slot(e)
	if *s == 0 {
		if len(c.edges) == cap(c.edges) {
			c.edges = append(make([]Edge, 0, max(16, 2*cap(c.edges))), c.edges...)
		}
		c.edges = append(c.edges, e)
		if *s = uint32(len(c.edges)); *s == 0 {
			panic("trace: more than 2^32-1 distinct (PC, target) pairs")
		}
	}
	return *s - 1
}

// slot returns the slot holding e's edge index, or the empty slot where it
// belongs.
func (c *Columns) slot(e Edge) *uint32 {
	mask := uint64(len(c.slots) - 1)
	h := (e.PC*0x9e3779b97f4a7c15 ^ e.Target) * 0xbf58476d1ce4e5b9
	i := (h ^ h>>32) & mask
	for c.slots[i] != 0 && c.edges[c.slots[i]-1] != e {
		i = (i + 1) & mask
	}
	return &c.slots[i]
}

// finalize rebuilds the per-class counts and the instruction total from the
// filled typ/instrBefore columns. The spill decoder fills the columns by
// index (no per-record Append) and then calls this once.
//
//blbp:hot
func (c *Columns) finalize() {
	c.counts = [numBranchTypes]int64{}
	var instr int64
	for _, ib := range c.instrBefore {
		instr += int64(ib)
	}
	c.instructions = instr + int64(len(c.instrBefore))
	for _, t := range c.typ {
		if t < numBranchTypes {
			c.counts[t]++
		}
	}
}

// Validate checks every record for internal consistency — the same two
// conditions as Record.Validate. A successful result is cached; Append
// clears it.
func (c *Columns) Validate() error {
	if c.validated {
		return nil
	}
	for i, t := range c.typ {
		bt := BranchType(t)
		if !bt.Valid() {
			return fmt.Errorf("record %d: trace: invalid branch type %d", i, t)
		}
		if !bt.IsConditional() && !c.Taken(i) {
			return fmt.Errorf("record %d: trace: %v branch at pc=%#x marked not taken", i, bt, c.edges[c.edge[i]].PC)
		}
	}
	c.validated = true
	return nil
}

// growCapped is the growth rule of the SPL3 decoder, which reads untrusted
// bytes: when need records overflow the capacity, it at least doubles it,
// but never past total, the record count the input's header declares.
// Capacity thus stays within twice the records already read and verified,
// so a lying header fails closed at its first bad block instead of
// committing memory up front, while an honest trace is reallocated only
// O(log n) times.
func (c *Columns) growCapped(need, total int) {
	if need <= cap(c.typ) {
		return
	}
	c.Grow(min(total, max(need, 2*cap(c.typ))))
}

// extend lengthens every column to n records within the current capacity,
// zeroing the new taken words, so a decoder can fill records by index.
func (c *Columns) extend(n int) {
	c.edge = c.edge[:n]
	c.instrBefore = c.instrBefore[:n]
	c.typ = c.typ[:n]
	for words := (n + 63) / 64; len(c.taken) < words; {
		c.taken = append(c.taken, 0)
	}
}
