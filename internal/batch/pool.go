package batch

import (
	"fmt"

	"blbp/internal/core"
)

// EventKind distinguishes the two stream event types the pool transports.
type EventKind uint8

const (
	// Indirect is a resolved indirect branch: predict the target, then train
	// with the actual one.
	Indirect EventKind = iota
	// Cond is a conditional branch outcome: feeds the stream's global
	// history, no prediction made.
	Cond
)

// Event is one element of a stream's program order.
type Event struct {
	Kind   EventKind
	PC     uint64
	Target uint64 // resolved target (Indirect)
	Taken  bool   // outcome (Cond)
}

// Result is the outcome of one batched indirect prediction.
type Result struct {
	Stream    int // pool stream id
	PC        uint64
	Predicted uint64
	OK        bool // false = no candidates (compulsory miss)
	Target    uint64
	Correct   bool
}

// stream is a pool member: its engine slot and its queue of pending events,
// a growable ring buffer so steady-state traffic enqueues without
// allocating. Retire clears live and empties the queue but keeps buf, so
// the next stream admitted under the same id enqueues into the ring its
// predecessor grew.
type stream struct {
	live bool
	slot int
	buf  []Event
	head int
	len  int
}

func (s *stream) push(ev Event) {
	if s.len == len(s.buf) {
		grown := make([]Event, max(16, 2*len(s.buf)))
		for i := 0; i < s.len; i++ {
			grown[i] = s.buf[(s.head+i)%len(s.buf)]
		}
		s.buf, s.head = grown, 0
	}
	s.buf[(s.head+s.len)%len(s.buf)] = ev
	s.len++
}

func (s *stream) pop() Event {
	ev := s.buf[s.head]
	s.head = (s.head + 1) % len(s.buf)
	s.len--
	return ev
}

// Pool round-robins batches over a set of admitted streams. Callers feed
// each stream's events in program order (Feed) and repeatedly Step the pool;
// every Step assembles one batch of at most one pending indirect event per
// stream — the invariant the engine's duplicate check enforces — predicts it
// in one sweep, trains with the resolved targets, and appends per-event
// Results. Conditional events at the front of a stream's queue are applied
// during the fill, preserving each stream's program order exactly.
//
// Like the Engine, the pool recycles what it allocates: a retired stream's
// event queue is kept for the next admission under its id, and TakeResults
// alternates between two result logs. Once the Engine is in its steady
// state, every id has held its largest queue and both logs have grown to
// the largest round served, Admit, Retire, Feed, Step and TakeResults
// allocate nothing (TestPoolSteadyStateAllocatesNothing).
type Pool struct {
	eng     *Engine
	streams []stream // stream id -> state, live or kept for reuse
	active  []int    // live stream ids in admission order
	cursor  int      // round-robin position in active

	// Batch assembly scratch, sized to the engine capacity once.
	slots   []int
	ids     []int
	pcs     []uint64
	actuals []uint64
	preds   []uint64
	oks     []bool

	results []Result // the log Step appends to
	taken   []Result // the log the last TakeResults handed out
}

// NewPool wraps an engine with queueing and round-robin fills. The engine
// must not be used for admissions outside the pool afterwards.
func NewPool(eng *Engine) *Pool {
	capacity := eng.Capacity()
	return &Pool{
		eng:     eng,
		streams: make([]stream, 0, capacity),
		active:  make([]int, 0, capacity),
		slots:   make([]int, 0, capacity),
		ids:     make([]int, 0, capacity),
		pcs:     make([]uint64, 0, capacity),
		actuals: make([]uint64, 0, capacity),
		preds:   make([]uint64, capacity),
		oks:     make([]bool, capacity),
	}
}

// Admit adds a stream to the pool and returns its id, or ok=false when the
// engine is full. Ids are pool-scoped and stable until Retire; Admit takes
// the lowest id not live, reusing the event queue of the stream that last
// held it.
func (p *Pool) Admit() (id int, ok bool) {
	slot, ok := p.eng.Admit()
	if !ok {
		return 0, false
	}
	for id < len(p.streams) && p.streams[id].live {
		id++
	}
	if id == len(p.streams) {
		p.streams = append(p.streams, stream{})
	}
	st := &p.streams[id]
	st.live, st.slot = true, slot
	p.active = append(p.active, id)
	return id, true
}

// live returns the state of stream id, which must be live; op names the
// call in the panic message otherwise.
func (p *Pool) live(id int, op string) *stream {
	if id < 0 || id >= len(p.streams) || !p.streams[id].live {
		panic(fmt.Sprintf("batch: %s non-live stream %d", op, id))
	}
	return &p.streams[id]
}

// Retire removes a stream, discarding any queued events and releasing its
// engine slot. The queue's memory stays with the id for its next admission.
func (p *Pool) Retire(id int) {
	st := p.live(id, "retire of")
	p.eng.Retire(st.slot)
	st.live, st.head, st.len = false, 0, 0
	for i, a := range p.active {
		if a == id {
			p.active = append(p.active[:i], p.active[i+1:]...)
			if p.cursor > i {
				p.cursor--
			}
			break
		}
	}
	if len(p.active) > 0 {
		p.cursor %= len(p.active)
	} else {
		p.cursor = 0
	}
}

// Feed appends one event to a stream's program order. The stream must be
// live.
func (p *Pool) Feed(id int, ev Event) { p.live(id, "feed to").push(ev) }

// Step assembles and serves one batch of up to batchSize indirect events,
// visiting streams round-robin from where the previous Step stopped. It
// returns the number of indirect events served (0 = nothing pending).
// Results are appended to the pool's result log (Results/TakeResults).
func (p *Pool) Step(batchSize int) int {
	if batchSize <= 0 || batchSize > p.eng.Capacity() {
		batchSize = p.eng.Capacity()
	}
	p.slots = p.slots[:0]
	p.ids = p.ids[:0]
	p.pcs = p.pcs[:0]
	p.actuals = p.actuals[:0]

	// Fill: one indirect event per visited stream, draining conditional
	// events eagerly (they touch only that stream's history, in order).
	visited := 0
	for len(p.slots) < batchSize && visited < len(p.active) {
		if p.cursor >= len(p.active) {
			p.cursor = 0
		}
		id := p.active[p.cursor]
		p.cursor++
		visited++
		st := &p.streams[id]
		for st.len > 0 {
			if st.buf[st.head].Kind != Cond {
				break
			}
			ev := st.pop()
			p.eng.OnCond(st.slot, ev.PC, ev.Taken)
		}
		if st.len == 0 {
			continue
		}
		ev := st.pop()
		p.slots = append(p.slots, st.slot)
		p.ids = append(p.ids, id)
		p.pcs = append(p.pcs, ev.PC)
		p.actuals = append(p.actuals, ev.Target)
	}
	b := len(p.slots)
	if b == 0 {
		return 0
	}

	p.eng.PredictBatch(p.slots, p.pcs, p.preds[:b], p.oks[:b])
	p.eng.UpdateBatch(p.slots, p.pcs, p.actuals)

	for i := 0; i < b; i++ {
		p.results = append(p.results, Result{
			Stream:    p.ids[i],
			PC:        p.pcs[i],
			Predicted: p.preds[i],
			OK:        p.oks[i],
			Target:    p.actuals[i],
			Correct:   p.oks[i] && p.preds[i] == p.actuals[i],
		})
	}
	return b
}

// Drain Steps until no events remain, returning how many indirect events
// were served.
func (p *Pool) Drain(batchSize int) int {
	total := 0
	for {
		n := p.Step(batchSize)
		if n == 0 {
			return total
		}
		total += n
	}
}

// Results returns the accumulated prediction results in service order. The
// slice is the pool's current log: once TakeResults hands that log out, the
// slice falls under TakeResults' contract.
func (p *Pool) Results() []Result { return p.results }

// TakeResults returns the accumulated results and starts a new log. The
// returned slice belongs to the caller until the next TakeResults, which
// truncates it and makes it the pool's log again: copy out anything that
// must outlive that call. Two logs alternate, so a pool serving rounds of
// similar size stops allocating for results after its second round.
func (p *Pool) TakeResults() []Result {
	out := p.results
	p.results, p.taken = p.taken[:0], out
	return out
}

// Engine exposes the underlying engine (diagnostics, per-stream access).
func (p *Pool) Engine() *Engine { return p.eng }

// Predictor returns stream id's predictor (diagnostics, state comparison).
// The stream must be live.
func (p *Pool) Predictor(id int) *core.BLBP {
	return p.eng.Stream(p.live(id, "access to").slot)
}
