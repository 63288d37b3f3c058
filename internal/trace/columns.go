package trace

import (
	"fmt"
	"sync"
)

// Columns is the in-memory trace, stored columnar (structure-of-arrays):
// one parallel array per Record field plus a packed taken bitset, and a
// precomputed run-length class segmentation. The layout serves the replay
// hot path — `sim` walks millions of records per pass, and an
// array-of-structs layout would make every pass pay a 6-way type switch, a
// bounds-checked struct load, and a per-record Taken byte for fields most
// classes never touch. The columnar layout streams each field contiguously,
// and the segmentation lets replay loops hoist the type dispatch (and any
// per-class interface assertions) out of the per-record path entirely.
// Record(i) materializes one record for cold paths.
//
// Segmentation is run-length, not per-class index lists, on purpose:
// predictors are stateful and must observe the interleaved record stream in
// original order, so the only reordering-free decomposition is maximal runs
// of identical BranchType. Replaying segments in order visits every record
// exactly once in trace order.
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

	segs         []Segment
	counts       [numBranchTypes]int64
	instructions int64

	// validated caches a successful Validate; Append clears it.
	validated bool
	// pooled marks arena-owned column storage (see ReleaseColumns).
	pooled bool
}

// Segment is one maximal run of same-typed records: indices [Start, End).
type Segment struct {
	Start, End int
	Type       BranchType
}

// NewColumns returns an empty columnar trace with capacity for n records.
func NewColumns(name string, n int) *Columns {
	c := &Columns{Name: name}
	c.grow(n)
	return c
}

// grow ensures capacity for n records (lengths stay unchanged).
func (c *Columns) grow(n int) {
	if cap(c.pc) >= n {
		return
	}
	c.pc = append(make([]uint64, 0, n), c.pc...)
	c.target = append(make([]uint64, 0, n), c.target...)
	c.instrBefore = append(make([]uint32, 0, n), c.instrBefore...)
	c.typ = append(make([]uint8, 0, n), c.typ...)
	words := (n + 63) / 64
	if cap(c.taken) < words {
		c.taken = append(make([]uint64, 0, words), c.taken...)
	}
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

// PC, Target, InstrBefore, Types, TakenWords and Segments return the
// underlying column arrays (shared; callers must not mutate them). Hot
// loops hoist these calls and index the slices directly.
func (c *Columns) PC() []uint64          { return c.pc }
func (c *Columns) Target() []uint64      { return c.target }
func (c *Columns) InstrBefore() []uint32 { return c.instrBefore }
func (c *Columns) Types() []uint8        { return c.typ }
func (c *Columns) TakenWords() []uint64  { return c.taken }
func (c *Columns) Segments() []Segment   { return c.segs }

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

// Append adds one record, maintaining the segmentation, the per-class
// counts, and the instruction total incrementally. It clears the cached
// validation (the record is not checked here).
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
	if n := len(c.segs); n > 0 && c.segs[n-1].Type == r.Type {
		c.segs[n-1].End = i + 1
	} else {
		c.segs = append(c.segs, Segment{Start: i, End: i + 1, Type: r.Type})
	}
	if r.Type.Valid() {
		c.counts[r.Type]++
	}
	c.instructions += int64(r.InstrBefore) + 1
	c.validated = false
}

// finalize rebuilds the segmentation, per-class counts, and instruction
// total from the filled typ/instrBefore columns. The spill decoder fills
// the columns by index (no per-record Append) and then calls this once.
//
//blbp:hot
func (c *Columns) finalize() {
	c.counts = [numBranchTypes]int64{}
	var instr int64
	for _, ib := range c.instrBefore {
		instr += int64(ib)
	}
	c.instructions = instr + int64(len(c.instrBefore))
	// Pass 1: count the runs so the segment slice can be sized exactly.
	nseg := 0
	prev := uint8(0xFF)
	for _, t := range c.typ {
		if t != prev {
			nseg++
			prev = t
		}
	}
	if cap(c.segs) < nseg {
		c.segs = make([]Segment, nseg)
	}
	c.segs = c.segs[:nseg]
	// Pass 2: fill segments by index and accumulate per-class counts.
	si := -1
	prev = 0xFF
	for i, t := range c.typ {
		if t != prev {
			si++
			c.segs[si] = Segment{Start: i, End: i + 1, Type: BranchType(t)}
			prev = t
		} else {
			c.segs[si].End = i + 1
		}
		if t < numBranchTypes {
			c.counts[t]++
		}
	}
}

// Validate checks every record for internal consistency — the same two
// conditions as Record.Validate, checked per segment and per bitset word
// instead of per record. A successful result is cached; Append clears it.
func (c *Columns) Validate() error {
	if c.validated {
		return nil
	}
	for _, seg := range c.segs {
		if !seg.Type.Valid() {
			return fmt.Errorf("record %d: trace: invalid branch type %d", seg.Start, uint8(seg.Type))
		}
		if seg.Type.IsConditional() {
			continue
		}
		// Unconditional classes must be all-taken: every bit in [Start, End)
		// must be set. Check whole words with boundary masks.
		for w := seg.Start >> 6; w <= (seg.End-1)>>6; w++ {
			want := ^uint64(0)
			if w == seg.Start>>6 {
				want <<= uint(seg.Start) & 63
			}
			if w == (seg.End-1)>>6 && seg.End&63 != 0 {
				want &= 1<<(uint(seg.End)&63) - 1
			}
			if got := c.taken[w] & want; got != want {
				// Locate the first offending record for the error message.
				for i := seg.Start; i < seg.End; i++ {
					if !c.Taken(i) {
						return fmt.Errorf("record %d: trace: %v branch at pc=%#x marked not taken", i, seg.Type, c.pc[i])
					}
				}
			}
		}
	}
	c.validated = true
	return nil
}

// colsPool recycles Columns whose storage is arena-owned: ReadSpillColumns
// draws from it so a decode-heavy loop (bench reps, warm-started suites
// that release traces after use) reuses column arrays instead of
// reallocating them per file. Entries handed to long-lived owners (the
// trace cache) are simply never released.
var colsPool = sync.Pool{New: func() any { return new(Columns) }}

// newPooledColumns returns a pooled Columns resized to exactly n records,
// with every column writable by index and the taken bitset zeroed.
func newPooledColumns(name string, n int) *Columns {
	c := colsPool.Get().(*Columns)
	c.Name = name
	c.pooled = true
	c.validated = false
	c.grow(n)
	c.pc = c.pc[:n]
	c.target = c.target[:n]
	c.instrBefore = c.instrBefore[:n]
	c.typ = c.typ[:n]
	c.taken = c.taken[:(n+63)/64]
	for i := range c.taken {
		c.taken[i] = 0
	}
	c.segs = c.segs[:0]
	return c
}

// setLen shrinks or extends the pooled columns to n records within the
// current capacity (used when growing block by block under a capped hint).
func (c *Columns) setLen(n int) {
	c.pc = c.pc[:n]
	c.target = c.target[:n]
	c.instrBefore = c.instrBefore[:n]
	c.typ = c.typ[:n]
	words := (n + 63) / 64
	for len(c.taken) < words {
		c.taken = append(c.taken, 0)
	}
	c.taken = c.taken[:words]
}

// ReleaseColumns returns a Columns obtained from ReadSpillColumns to the
// arena pool. After the call the columns (and any slices obtained from
// their accessors) must not be used. Releasing a non-pooled or nil Columns
// is a no-op, so callers can release unconditionally.
func ReleaseColumns(c *Columns) {
	if c == nil || !c.pooled {
		return
	}
	c.setLen(0)
	c.segs = c.segs[:0]
	c.counts = [numBranchTypes]int64{}
	c.instructions = 0
	c.Name = ""
	c.validated = false
	colsPool.Put(c)
}
