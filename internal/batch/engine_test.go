package batch

import (
	"math/rand"
	"slices"
	"testing"

	"blbp/internal/core"
)

// smallConfig keeps unit-test engines cheap: the full predictor logic over
// small tables and a small IBTB.
func smallConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.TableEntries = 128
	cfg.IBTB.Sets = 8
	cfg.IBTB.Assoc = 8
	cfg.IBTB.RegionEntries = 32
	cfg.LocalEntries = 64
	return cfg
}

func TestAdmitRetireRecycle(t *testing.T) {
	eng := NewEngine(smallConfig(), 3)
	if eng.Capacity() != 3 || eng.Live() != 0 {
		t.Fatalf("fresh engine: capacity=%d live=%d", eng.Capacity(), eng.Live())
	}
	var slots []int
	for i := 0; i < 3; i++ {
		s, ok := eng.Admit()
		if !ok {
			t.Fatalf("admission %d refused with free capacity", i)
		}
		slots = append(slots, s)
	}
	if _, ok := eng.Admit(); ok {
		t.Fatalf("admission beyond capacity succeeded")
	}
	if eng.Live() != 3 {
		t.Fatalf("live=%d after filling capacity 3", eng.Live())
	}

	// Train a stream, retire it, re-admit the slot: the recycled predictor
	// must be indistinguishable from a fresh one.
	rng := rand.New(rand.NewSource(7))
	dirty := slots[1]
	for i := 0; i < 500; i++ {
		pc := 0x400000 + uint64(rng.Intn(4))*0x40
		eng.Stream(dirty).Predict(pc)
		eng.Stream(dirty).Update(pc, 0x500000+uint64(rng.Intn(8))*8)
	}
	eng.Retire(dirty)
	recycled, ok := eng.Admit()
	if !ok || recycled != dirty {
		t.Fatalf("recycle: got slot %d ok=%v, want LIFO reuse of %d", recycled, ok, dirty)
	}
	if got, want := eng.Stream(recycled).Fingerprint(), core.New(smallConfig()).Fingerprint(); got != want {
		t.Fatalf("recycled slot fingerprint %#x differs from fresh %#x", got, want)
	}
}

func TestDuplicateStreamPanics(t *testing.T) {
	eng := NewEngine(smallConfig(), 2)
	s, _ := eng.Admit()
	defer func() {
		if recover() == nil {
			t.Fatalf("PredictBatch accepted the same stream twice in one batch")
		}
	}()
	pcs := []uint64{0x400000, 0x400040}
	eng.PredictBatch([]int{s, s}, pcs, make([]uint64, 2), make([]bool, 2))
}

// TestSweepSaturatedLanes fills every packed lane of 256-sub-predictor
// streams with the largest cell the lane bound admits — 2 × laneBias at
// 8-bit weights without the transfer function — and requires sweep to sum
// each lane to exactly 256 × 254 = 65,024, with no carry into its
// neighbor. K=12 runs the unrolled branch, K=32 the generic one.
func TestSweepSaturatedLanes(t *testing.T) {
	const n, b = 256, 3
	for _, k := range []int{12, 32} {
		cfg := smallConfig()
		cfg.K, cfg.WeightBits, cfg.UseTransfer, cfg.TableEntries = k, 8, false, 4
		cfg.Intervals = make([]core.Interval, n-1)
		cfg.GEHLLengths = make([]int, n-1)
		for i := range cfg.Intervals {
			cfg.Intervals[i] = core.Interval{Lo: i, Hi: i}
			cfg.GEHLLengths[i] = i + 1
		}
		eng := NewEngine(cfg, b)
		eng.ensureBatch(b)
		var cell uint64
		for i := 0; i < b; i++ {
			slot, _ := eng.Admit()
			p := eng.Stream(slot)
			tab := p.BatchTable()
			cell = 2 * (tab[0] & 0xffff) // a fresh table holds laneBias in every lane
			for w := range tab {
				tab[w] = cell * 0x0001_0001_0001_0001
			}
			p.BatchIndex(0x400000 + uint64(i)*0x40)
			copy(eng.rows[i*n:(i+1)*n], p.BatchRows())
			eng.tabs[i] = tab
		}
		if cell != 254 {
			t.Fatalf("K=%d: max cell = %d, want 2 × 127", k, cell)
		}
		for i := range eng.accs {
			eng.accs[i] = ^uint64(0) // the sweep owns zeroing its accumulators
		}
		eng.sweep(b)
		// Check lane by lane: a carry out of one lane lands in the next, so
		// only the per-lane value shows it.
		for i, acc := range eng.accs[:b*eng.wpr] {
			for l := 0; l < 4; l++ {
				if lane := acc >> (16 * l) & 0xffff; lane != n*cell {
					t.Errorf("K=%d: word %d lane %d = %d, want %d", k, i, l, lane, n*cell)
				}
			}
		}
	}
}

// TestRetireNonLivePanics checks that a call naming a slot or stream that
// is not live — retired, never admitted or out of range — panics with a
// batch: message, not a runtime index error: every Engine call that takes
// a slot, and every Pool call that takes a stream id, each at -1 and at
// Capacity(). A Feed must not land in a retired id's kept queue, where no
// Step would serve it, and the refused calls must leave the pool as it
// was.
func TestRetireNonLivePanics(t *testing.T) {
	eng := NewEngine(smallConfig(), 2)
	slot, _ := eng.Admit()
	eng.Retire(slot)
	pool := NewPool(NewEngine(smallConfig(), 3))
	live, _ := pool.Admit()
	retired, _ := pool.Admit()
	pool.Retire(retired)
	ev := Event{Kind: Indirect, PC: 0x400000, Target: 0x500000}
	predict := func(slot int) func() {
		return func() { eng.PredictBatch([]int{slot}, []uint64{ev.PC}, make([]uint64, 1), make([]bool, 1)) }
	}
	update := func(slot int) func() {
		return func() { eng.UpdateBatch([]int{slot}, []uint64{ev.PC}, []uint64{ev.Target}) }
	}
	for _, tc := range []struct {
		name string
		call func()
		want string
	}{
		{"engine retire retired", func() { eng.Retire(slot) }, "batch: retire of non-live slot 0"},
		{"engine retire negative", func() { eng.Retire(-1) }, "batch: retire of non-live slot -1"},
		{"engine retire capacity", func() { eng.Retire(eng.Capacity()) }, "batch: retire of non-live slot 2"},
		{"engine stream negative", func() { eng.Stream(-1) }, "batch: access to non-live slot -1"},
		{"engine stream capacity", func() { eng.Stream(eng.Capacity()) }, "batch: access to non-live slot 2"},
		{"engine cond negative", func() { eng.OnCond(-1, ev.PC, true) }, "batch: access to non-live slot -1"},
		{"engine cond capacity", func() { eng.OnCond(eng.Capacity(), ev.PC, true) }, "batch: access to non-live slot 2"},
		{"engine predict negative", predict(-1), "batch: access to non-live slot -1"},
		{"engine predict capacity", predict(eng.Capacity()), "batch: access to non-live slot 2"},
		{"engine update negative", update(-1), "batch: access to non-live slot -1"},
		{"engine update capacity", update(eng.Capacity()), "batch: access to non-live slot 2"},
		{"feed retired", func() { pool.Feed(retired, ev) }, "batch: feed to non-live stream 1"},
		{"feed never admitted", func() { pool.Feed(2, ev) }, "batch: feed to non-live stream 2"},
		{"feed negative", func() { pool.Feed(-1, ev) }, "batch: feed to non-live stream -1"},
		{"feed capacity", func() { pool.Feed(3, ev) }, "batch: feed to non-live stream 3"},
		{"predictor retired", func() { pool.Predictor(retired) }, "batch: access to non-live stream 1"},
		{"predictor never admitted", func() { pool.Predictor(9) }, "batch: access to non-live stream 9"},
		{"predictor negative", func() { pool.Predictor(-1) }, "batch: access to non-live stream -1"},
		{"predictor capacity", func() { pool.Predictor(3) }, "batch: access to non-live stream 3"},
		{"retire retired", func() { pool.Retire(retired) }, "batch: retire of non-live stream 1"},
		{"retire never admitted", func() { pool.Retire(3) }, "batch: retire of non-live stream 3"},
		{"retire negative", func() { pool.Retire(-1) }, "batch: retire of non-live stream -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("panic %v, want %q", got, tc.want)
				}
			}()
			tc.call()
		})
	}
	pool.Feed(live, ev)
	if n := pool.Drain(3); n != 1 || len(pool.Results()) != 1 || pool.Results()[0].Stream != live {
		t.Fatalf("after the refused calls the pool served %d events, results %+v; want stream %d's one", n, pool.Results(), live)
	}
}

// TestEngineSteadyStateAllocatesNothing pins the Engine's claim that steady
// state allocates nothing. After a warm-up round at width 64, a round that
// Retires and re-Admits every stream (the Reset path), then serves
// GenStreams(1234, 64, 512) under ServingConfig by the Pool's fill rule —
// each stream's leading conditional events through OnCond, then at most one
// indirect event per stream into PredictBatch and UpdateBatch, at widths
// from 64 down as streams drain — must make no allocation.
func TestEngineSteadyStateAllocatesNothing(t *testing.T) {
	const width = 64
	streams := GenStreams(1234, width, 512)
	eng := NewEngine(ServingConfig(), width)
	slots := make([]int, width)
	for s := range slots {
		slots[s], _ = eng.Admit()
	}
	pos := make([]int, width)
	bs := make([]int, 0, width)
	pcs := make([]uint64, 0, width)
	acts := make([]uint64, 0, width)
	targets := make([]uint64, width)
	oks := make([]bool, width)
	round := func() {
		for s, slot := range slots {
			eng.Retire(slot)
			slots[s], _ = eng.Admit()
			pos[s] = 0
		}
		for {
			bs, pcs, acts = bs[:0], pcs[:0], acts[:0]
			for s, evs := range streams {
				for pos[s] < len(evs) && evs[pos[s]].Kind == Cond {
					eng.OnCond(slots[s], evs[pos[s]].PC, evs[pos[s]].Taken)
					pos[s]++
				}
				if pos[s] < len(evs) {
					bs = append(bs, slots[s])
					pcs = append(pcs, evs[pos[s]].PC)
					acts = append(acts, evs[pos[s]].Target)
					pos[s]++
				}
			}
			if len(bs) == 0 {
				return
			}
			eng.PredictBatch(bs, pcs, targets[:len(bs)], oks[:len(bs)])
			eng.UpdateBatch(bs, pcs, acts)
		}
	}
	// AllocsPerRun runs round once unmeasured: that is the warm-up.
	if allocs := testing.AllocsPerRun(1, round); allocs != 0 {
		t.Fatalf("a warmed engine round made %v allocations, want 0", allocs)
	}
}

// servingCycle admits one pool stream per element of streams and returns
// a serving cycle over them: Retire every stream, Admit them again, feed
// and drain them (feedThenDrain) and take the results.
// TestPoolSteadyStateAllocatesNothing and BenchmarkPoolDrain's recycle
// case run it.
func servingCycle(pool *Pool, streams [][]Event) func() {
	ids := make([]int, len(streams))
	for s := range ids {
		ids[s], _ = pool.Admit()
	}
	return func() {
		for _, id := range ids {
			pool.Retire(id)
		}
		for s := range ids {
			ids[s], _ = pool.Admit()
		}
		feedThenDrain(pool, ids, streams)
		pool.TakeResults()
	}
}

// TestPoolSteadyStateAllocatesNothing extends the Engine's claim to the
// Pool, with servingCycle over GenStreams(1234, 64, 512) under ServingConfig. The
// first two cycles grow each id's queue and the two result logs; after
// them a cycle must make no allocation.
func TestPoolSteadyStateAllocatesNothing(t *testing.T) {
	cycle := servingCycle(NewPool(NewEngine(ServingConfig(), 64)), GenStreams(1234, 64, 512))
	cycle()
	// AllocsPerRun's unmeasured first run is the second warm-up cycle.
	if allocs := testing.AllocsPerRun(2, cycle); allocs != 0 {
		t.Fatalf("a warmed pool cycle made %v allocations, want 0", allocs)
	}
}

// TestTakeResultsContract checks TakeResults' reuse contract: a taken log
// stays intact while later Steps fill the next one, and the TakeResults
// after that hands its memory back to the pool as the new log.
func TestTakeResultsContract(t *testing.T) {
	const width = 4
	streams := GenStreams(7, width, 200)
	pool := NewPool(NewEngine(smallConfig(), width))
	ids := make([]int, width)
	for s := range ids {
		ids[s], _ = pool.Admit()
	}
	feedThenDrain(pool, ids, streams)
	first := pool.TakeResults()
	if len(first) == 0 || len(pool.Results()) != 0 {
		t.Fatalf("TakeResults returned %d results and left %d in the log; want all of them, none left", len(first), len(pool.Results()))
	}
	want := slices.Clone(first)
	feedThenDrain(pool, ids, streams)
	if !slices.Equal(first, want) {
		t.Fatalf("a taken log changed while later Steps filled the next one")
	}
	second := pool.TakeResults()
	want = slices.Clone(second)
	feedThenDrain(pool, ids, streams)
	if !slices.Equal(second, want) {
		t.Fatalf("the second taken log changed while later Steps filled the next one")
	}
	third := pool.TakeResults()
	if &third[0] != &first[0] {
		t.Fatalf("the third log does not reuse the memory of the first")
	}
}

// TestPoolRoundRobinOrder checks that Step serves at most one indirect
// event per stream per batch and preserves each stream's program order.
func TestPoolRoundRobinOrder(t *testing.T) {
	pool := NewPool(NewEngine(smallConfig(), 4))
	var ids []int
	for i := 0; i < 4; i++ {
		id, ok := pool.Admit()
		if !ok {
			t.Fatalf("admission %d refused", i)
		}
		ids = append(ids, id)
	}
	// Stream i gets 3 indirect events tagged with its id and sequence.
	for seq := 0; seq < 3; seq++ {
		for _, id := range ids {
			pool.Feed(id, Event{
				Kind:   Indirect,
				PC:     0x400000 + uint64(id)*0x40,
				Target: 0x500000 + uint64(id)<<8 + uint64(seq)*4,
			})
		}
	}
	if n := pool.Step(4); n != 4 {
		t.Fatalf("first step served %d, want one event from each of 4 streams", n)
	}
	served := pool.Drain(4)
	if served != 8 {
		t.Fatalf("drain served %d, want the remaining 8", served)
	}
	results := pool.Results()
	if len(results) != 12 {
		t.Fatalf("got %d results, want 12", len(results))
	}
	next := make([]int, 4)
	for _, r := range results {
		wantTarget := 0x500000 + uint64(r.Stream)<<8 + uint64(next[r.Stream])*4
		if r.Target != wantTarget {
			t.Fatalf("stream %d served out of order: target %#x, want %#x", r.Stream, r.Target, wantTarget)
		}
		next[r.Stream]++
	}
	for id, n := range next {
		if n != 3 {
			t.Fatalf("stream %d served %d events, want 3", id, n)
		}
	}
}

// TestPoolCondOrdering interleaves conditional events and checks they reach
// the stream's history in program order relative to its indirect events, by
// comparing against a serially driven reference predictor.
func TestPoolCondOrdering(t *testing.T) {
	cfg := smallConfig()
	pool := NewPool(NewEngine(cfg, 2))
	id, _ := pool.Admit()
	ref := core.New(cfg)

	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		if rng.Intn(4) != 0 {
			ev := Event{Kind: Cond, PC: 0x600000 + uint64(rng.Intn(16))*4, Taken: rng.Intn(2) == 0}
			pool.Feed(id, ev)
			ref.OnCond(ev.PC, ev.Taken)
			continue
		}
		ev := Event{Kind: Indirect, PC: 0x400000 + uint64(rng.Intn(3))*0x40, Target: 0x500000 + uint64(rng.Intn(6))*8}
		pool.Feed(id, ev)
		ref.Predict(ev.PC)
		ref.Update(ev.PC, ev.Target)
	}
	pool.Drain(1)
	if got, want := pool.Predictor(id).Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("pooled stream fingerprint %#x differs from serial reference %#x", got, want)
	}
}
