package trace

import (
	"fmt"
	"reflect"
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
// once, to exactly n (lengths stay unchanged). A trace that already holds
// records also gets segment room for n records at its records-per-segment
// ratio so far, so Append's segment upkeep need not regrow either. A
// builder that can estimate a trace's final length calls Grow with it
// rather than leave Append to grow the columns step by step.
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
	if len(c.segs) > 0 {
		if segs := int(int64(n) * int64(len(c.segs)) / int64(len(c.typ))); cap(c.segs) < segs {
			c.segs = append(make([]Segment, 0, segs), c.segs...)
		}
	}
}

// segmentBytes is the in-memory size of one Segment.
var segmentBytes = int64(reflect.TypeOf(Segment{}).Size())

// Bytes returns the heap bytes the trace's arrays hold: capacity times
// element size, summed over the five record columns and the segments.
func (c *Columns) Bytes() int64 {
	return int64(cap(c.pc)+cap(c.target)+cap(c.taken))*8 + int64(cap(c.instrBefore))*4 +
		int64(cap(c.typ)) + int64(cap(c.segs))*segmentBytes
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
