// Package batch serves many independent branch streams from one prediction
// engine. Each admitted stream owns a complete, isolated BLBP state — weight
// tables, folded histories, IBTB, thresholds, pending-update cache — held in
// a slot of a fixed pool, and a batch of predictions (at most one per stream)
// is answered with a single sweep that accumulates every item's packed
// per-bit sums together. Per-stream isolation is what makes the batch
// bit-identical to driving each stream through the serial Predict/Update
// loop, for any interleaving: streams share no trained state, so batching
// changes only the order of independent work.
//
// Engine is the batching core; Pool layers per-stream event queues and
// round-robin batch fills on top (pool.go).
package batch

import (
	"fmt"

	"blbp/internal/core"
)

// Engine is a pool of per-stream predictors with batched predict/train
// entry points. Slots are index-addressed: Admit returns a slot id that
// callers use for every subsequent event on that stream, and Retire recycles
// the id. In steady state — admissions reusing retired slots, batch sizes no
// larger than previously seen — the engine performs no allocations.
//
// Engine is not safe for concurrent use; shard across engines to scale over
// cores (each shard owns disjoint streams, so shards share nothing).
type Engine struct {
	cfg core.Config

	slots []*core.BLBP // lazily constructed; Reset on reuse, never reallocated
	live  []bool
	free  []int // retired/never-used slot ids, reused LIFO

	// Duplicate-stream detection: PredictBatch stamps each item's slot with
	// the batch epoch and panics on a repeat. Two predictions for one stream
	// in a single batch cannot be serialized correctly — the second's serial
	// reference depends on the first's Update, which has not happened yet —
	// so the Pool's round-robin fill guarantees at most one event per stream
	// per batch, and the Engine enforces it.
	stamp []uint64
	epoch uint64

	n   int // SubPredictors()
	wpr int // lane words per packed row
	// rows is the batch scratch of per-item packed-row offsets, n apiece:
	// an arena whose n-sized windows bound one item's lane accumulation.
	rows []int
	// tabs is the batch scratch of per-item packed weight images.
	tabs [][]uint64
	// accs is the batch scratch of per-item lane accumulators, wpr apiece.
	accs []uint64
}

// NewEngine returns an engine with capacity stream slots, all free, each
// serving a predictor built from cfg on first admission. It panics on an
// invalid configuration or non-positive capacity.
func NewEngine(cfg core.Config, capacity int) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if capacity <= 0 {
		panic("batch: non-positive engine capacity")
	}
	probe := core.New(cfg)
	e := &Engine{
		cfg:   cfg,
		slots: make([]*core.BLBP, capacity),
		live:  make([]bool, capacity),
		free:  make([]int, 0, capacity),
		stamp: make([]uint64, capacity),
		n:     cfg.SubPredictors(),
		wpr:   probe.LaneWordsPerRow(),
	}
	e.slots[0] = probe // reused by the first admission
	for s := capacity - 1; s >= 0; s-- {
		e.free = append(e.free, s)
	}
	return e
}

// Capacity returns the number of stream slots.
func (e *Engine) Capacity() int { return len(e.slots) }

// Live returns how many slots currently hold admitted streams.
func (e *Engine) Live() int { return len(e.slots) - len(e.free) }

// Admit claims a slot for a new stream and returns its id, or ok=false when
// the pool is full. A recycled slot's predictor is Reset to the freshly
// constructed state, so a stream's history never leaks into its successor.
func (e *Engine) Admit() (slot int, ok bool) {
	if len(e.free) == 0 {
		return 0, false
	}
	slot = e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	if p := e.slots[slot]; p == nil {
		e.slots[slot] = core.New(e.cfg)
	} else {
		p.Reset()
	}
	e.live[slot] = true
	return slot, true
}

// Retire releases a stream's slot for reuse. The predictor's memory is kept;
// the next admission Resets it in place.
func (e *Engine) Retire(slot int) {
	if uint(slot) >= uint(len(e.live)) || !e.live[slot] {
		notLive("retire of", slot)
	}
	e.live[slot] = false
	e.free = append(e.free, slot)
}

// Stream returns slot's predictor for serial use — conditional-outcome
// feeds, diagnostics, or driving one stream outside a batch. The slot must
// be live.
func (e *Engine) Stream(slot int) *core.BLBP {
	if uint(slot) >= uint(len(e.live)) || !e.live[slot] {
		notLive("access to", slot)
	}
	return e.slots[slot]
}

// notLive panics with a batch: message naming the call (op) and a slot
// that is out of range or not live. Kept out of line, it formats nothing
// on the hot path and keeps Stream within the inlining budget, so the
// slot check costs the batch loops no call.
//
//go:noinline
func notLive(op string, slot int) {
	panic(fmt.Sprintf("batch: %s non-live slot %d", op, slot))
}

// OnCond feeds a conditional branch outcome to slot's stream.
func (e *Engine) OnCond(slot int, pc uint64, taken bool) {
	e.Stream(slot).OnCond(pc, taken)
}

// ensureBatch sizes the batch scratch for b items.
func (e *Engine) ensureBatch(b int) {
	if len(e.tabs) < b {
		e.rows = make([]int, b*e.n)
		e.tabs = make([][]uint64, b)
		e.accs = make([]uint64, b*e.wpr)
	}
}

// PredictBatch predicts one batch: item i asks stream slots[i] about branch
// site pcs[i], filling targets[i] and oks[i]. All four slices must have
// equal length, every slot must be live, and each slot may appear at most
// once (a repeat panics — see the stamp field). The results and every
// stream's state afterward are bit-identical to calling
// Stream(slots[i]).Predict(pcs[i]) serially, in any order.
func (e *Engine) PredictBatch(slots []int, pcs, targets []uint64, oks []bool) {
	if len(pcs) != len(slots) || len(targets) != len(slots) || len(oks) != len(slots) {
		panic("batch: PredictBatch slice lengths differ")
	}
	b := len(slots)
	if b == 0 {
		return
	}
	e.ensureBatch(b)
	e.epoch++

	// Phase A: prepare every item on its own predictor, split into the two
	// commuting halves so each runs as a tight loop over the batch — one
	// item's history hashing overlaps another's IBTB scan in the memory
	// pipeline instead of serializing behind it.
	for i, slot := range slots {
		p := e.Stream(slot)
		if e.stamp[slot] == e.epoch {
			panic(fmt.Sprintf("batch: slot %d appears twice in one batch", slot))
		}
		e.stamp[slot] = e.epoch
		p.BatchIndex(pcs[i])
		copy(e.rows[i*e.n:(i+1)*e.n], p.BatchRows())
		e.tabs[i] = p.BatchTable()
	}
	for i, slot := range slots {
		e.slots[slot].BatchGather(pcs[i])
	}

	// Phase B: one sweep accumulates the whole batch's per-bit sums from
	// the packed weight images (the sweep owns the zeroing of its
	// accumulator window).
	accs := e.accs[:b*e.wpr]
	e.sweep(b)

	// Phase C: finish each item's prediction on its own predictor.
	for i, slot := range slots {
		targets[i], oks[i] = e.slots[slot].BatchFinish(pcs[i], accs[i*e.wpr:(i+1)*e.wpr])
	}
}

// sweep is the batched sum kernel: one pass over the batch's
// SubPredictors()×items active packed rows, accumulating each item's
// per-bit lane sums. Within an item the sub-predictor row loads are
// independent, and consecutive items share nothing, so the batch's
// scattered loads overlap in the memory pipeline; the per-item lane
// accumulators live in registers for the whole inner sweep.
//
// The kernel owns zeroing the accumulator window: keeping the clear next
// to the accumulation makes the no-overflow argument local (every sum
// starts from zero and adds at most SubPredictors() bounded rows). The
// unrolled branch overwrites every word it is responsible for, so only the
// generic branch clears explicitly.
//
//blbp:hot
func (e *Engine) sweep(b int) {
	n, wpr := e.n, e.wpr
	if wpr == 3 {
		// K in 9..12 — the paper configuration's row shape.
		for i := 0; i < b; i++ {
			tab := e.tabs[i]
			rows := e.rows[i*n : i*n+n]
			var a0, a1, a2 uint64
			for _, base := range rows {
				row := tab[base : base+3 : base+3]
				a0 += row[0]
				a1 += row[1]
				a2 += row[2]
			}
			j := i * 3
			e.accs[j] = a0
			e.accs[j+1] = a1
			e.accs[j+2] = a2
		}
		return
	}
	accs := e.accs[:b*wpr]
	for i := range accs {
		accs[i] = 0
	}
	for i := 0; i < b; i++ {
		tab := e.tabs[i]
		rows := e.rows[i*n : i*n+n]
		acc := accs[i*wpr : i*wpr+wpr]
		for _, base := range rows {
			row := tab[base : base+wpr]
			for w, v := range row {
				acc[w] += v
			}
		}
	}
}

// UpdateBatch trains each item's stream with its resolved target. Training
// is independent across streams (disjoint state) and serially dependent
// within one, so the loop applies items in order; unlike PredictBatch, a
// slot may appear multiple times (its updates land in order).
func (e *Engine) UpdateBatch(slots []int, pcs, actuals []uint64) {
	if len(pcs) != len(slots) || len(actuals) != len(slots) {
		panic("batch: UpdateBatch slice lengths differ")
	}
	for i, slot := range slots {
		e.Stream(slot).Update(pcs[i], actuals[i])
	}
}

// StorageBits returns the modeled hardware budget of one stream's predictor
// times the pool capacity.
func (e *Engine) StorageBits() int {
	return e.slots[0].StorageBits() * len(e.slots)
}
