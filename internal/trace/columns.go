package trace

import "fmt"

// Columns is the in-memory trace, stored columnar (structure-of-arrays):
// one parallel array per Record field plus a packed taken bitset. The
// layout serves the replay hot path — `sim` walks millions of records per
// pass, and an array-of-structs layout would make every pass pay a 6-way
// type switch, a bounds-checked struct load, and a per-record Taken byte
// for fields most classes never touch. The columnar layout streams each
// field contiguously, and RunEnd lets replay loops find the maximal
// same-type runs in the type column as they go, hoisting the type dispatch
// (and any per-class interface assertions) out of the per-record path.
// Record(i) materializes one record for cold paths.
//
// The runs are maximal runs of identical BranchType, not per-class index
// lists, on purpose: predictors are stateful and must observe the
// interleaved record stream in original order, so the only reordering-free
// decomposition is by runs. Replaying the runs in order visits every record
// exactly once in trace order. No segmentation is stored: at about 1.6
// records per run it would cost more bytes than the PC column.
//
// A Columns is built once (by a workload generator, a decoder, or Append)
// and is read-only afterwards: the accessor methods return the underlying
// arrays, and callers must not mutate them. A successful Validate is cached
// so repeated passes skip the check.
type Columns struct {
	// Name identifies the workload the trace came from.
	Name string

	pc          []uint64
	target      []uint64
	instrBefore []uint32
	typ         []uint8
	taken       []uint64 // bitset, bit i = record i's outcome

	counts       [numBranchTypes]int64
	instructions int64

	// validated caches a successful Validate; Append clears it.
	validated bool
}

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

// Grow ensures capacity for n records, reallocating each column at most
// once, to exactly n (lengths stay unchanged). A caller that can estimate
// a trace's final length calls Grow with it rather than leave Append to
// grow the columns step by step.
func (c *Columns) Grow(n int) {
	if n <= cap(c.typ) {
		return
	}
	c.pc = append(make([]uint64, 0, n), c.pc...)
	c.target = append(make([]uint64, 0, n), c.target...)
	c.instrBefore = append(make([]uint32, 0, n), c.instrBefore...)
	c.typ = append(make([]uint8, 0, n), c.typ...)
	if words := (n + 63) / 64; cap(c.taken) < words {
		c.taken = append(make([]uint64, 0, words), c.taken...)
	}
}

// Bytes returns the heap bytes the trace's arrays hold: capacity times
// element size, summed over the five record columns.
func (c *Columns) Bytes() int64 {
	return int64(cap(c.pc)+cap(c.target)+cap(c.taken))*8 + int64(cap(c.instrBefore))*4 + int64(cap(c.typ))
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

// PC, Target, InstrBefore, Types and TakenWords return the underlying
// column arrays (shared; callers must not mutate them). Hot loops hoist
// these calls and index the slices directly.
func (c *Columns) PC() []uint64          { return c.pc }
func (c *Columns) Target() []uint64      { return c.target }
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
	return Record{
		PC:          c.pc[i],
		Target:      c.target[i],
		InstrBefore: c.instrBefore[i],
		Type:        BranchType(c.typ[i]),
		Taken:       c.Taken(i),
	}
}

// Append adds one record, maintaining the per-class counts and the
// instruction total incrementally. It clears the cached validation (the
// record is not checked here).
func (c *Columns) Append(r Record) {
	i := len(c.typ)
	c.pc = append(c.pc, r.PC)
	c.target = append(c.target, r.Target)
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
			return fmt.Errorf("record %d: trace: %v branch at pc=%#x marked not taken", i, bt, c.pc[i])
		}
	}
	c.validated = true
	return nil
}

// growCapped is the growth rule of the decoders of untrusted bytes: when
// need records overflow the capacity, it at least doubles it, but never
// past total, the record count the input's header declares. Capacity thus
// stays within twice the records already read and verified, so a lying
// header fails closed at its first bad record instead of committing memory
// up front, while an honest trace is reallocated only O(log n) times.
func (c *Columns) growCapped(need, total int) {
	if need <= cap(c.typ) {
		return
	}
	c.Grow(min(total, max(need, 2*cap(c.typ))))
}

// extend lengthens every column to n records within the current capacity,
// zeroing the new taken words, so a decoder can fill records by index.
func (c *Columns) extend(n int) {
	c.pc = c.pc[:n]
	c.target = c.target[:n]
	c.instrBefore = c.instrBefore[:n]
	c.typ = c.typ[:n]
	for words := (n + 63) / 64; len(c.taken) < words; {
		c.taken = append(c.taken, 0)
	}
}
