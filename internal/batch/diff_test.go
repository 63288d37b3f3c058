package batch

import (
	"fmt"
	"math/rand"
	"testing"

	"blbp/internal/core"
)

// pred is one indirect prediction as its stream saw it. Keeping ok apart
// from target tells a miss from a prediction of target 0.
type pred struct {
	pc, target uint64
	ok         bool
}

// runSerial drives each stream through its own predictor with the plain
// Predict/Update loop: the reference the batched engine must match bit for
// bit. It returns each stream's predictions and final state fingerprint.
func runSerial(cfg core.Config, streams [][]Event) (preds [][]pred, fps []uint64) {
	preds = make([][]pred, len(streams))
	fps = make([]uint64, len(streams))
	for s, evs := range streams {
		p := core.New(cfg)
		for _, ev := range evs {
			if ev.Kind == Cond {
				p.OnCond(ev.PC, ev.Taken)
				continue
			}
			t, ok := p.Predict(ev.PC)
			preds[s] = append(preds[s], pred{pc: ev.PC, target: t, ok: ok})
			p.Update(ev.PC, ev.Target)
		}
		fps[s] = p.Fingerprint()
	}
	return preds, fps
}

// schedule feeds streams[s] to pool stream ids[s] and steps the pool until
// every event is served.
type schedule func(pool *Pool, ids []int, streams [][]Event)

// feedThenDrain is the serving schedule: queue every stream's events
// first, then drain the pool at its full width.
func feedThenDrain(pool *Pool, ids []int, streams [][]Event) {
	for s, evs := range streams {
		for _, ev := range evs {
			pool.Feed(ids[s], ev)
		}
	}
	pool.Drain(len(streams))
}

// interleaved returns a randomized schedule: events are fed in random
// per-stream chunks with batch steps of random size mixed in, then the
// pool drains at a random width.
func interleaved(seed int64) schedule {
	return func(pool *Pool, ids []int, streams [][]Event) {
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
		fed := make([]int, len(streams))
		remaining := 0
		for _, evs := range streams {
			remaining += len(evs)
		}
		for remaining > 0 {
			s := rng.Intn(len(streams))
			if fed[s] == len(streams[s]) {
				continue
			}
			chunk := 1 + rng.Intn(3)
			for ; chunk > 0 && fed[s] < len(streams[s]); chunk-- {
				pool.Feed(ids[s], streams[s][fed[s]])
				fed[s]++
				remaining--
			}
			if rng.Intn(4) == 0 {
				pool.Step(1 + rng.Intn(len(streams)))
			}
		}
		pool.Drain(1 + rng.Intn(len(streams)))
	}
}

// recycled returns a schedule that serves streams through recycled ids.
// Every id first queues 128 events of an unrelated stream family, the pool
// serves part of them, and the ids are retired in random order with Steps
// in between, so most retire with events still queued and Retire meets
// every cursor position. The results served so far are taken and dropped,
// the ids are re-admitted — Admit hands them back in order, each with the
// queue its retired stream grew — and inner serves streams through them.
// A queued event that survived Retire would add a prediction the serial
// reference never made.
func recycled(seed int64, inner schedule) schedule {
	return func(pool *Pool, ids []int, streams [][]Event) {
		rng := rand.New(rand.NewSource(seed ^ 0x7ec7c1ed))
		for s, evs := range GenStreams(seed+1, len(streams), 128) {
			for _, ev := range evs {
				pool.Feed(ids[s], ev)
			}
		}
		pool.Step(1 + rng.Intn(len(streams)))
		for _, s := range rng.Perm(len(ids)) {
			pool.Retire(ids[s])
			if rng.Intn(3) == 0 {
				pool.Step(1 + rng.Intn(len(streams)))
			}
		}
		pool.TakeResults()
		for s := range ids {
			ids[s], _ = pool.Admit()
		}
		inner(pool, ids, streams)
	}
}

// runBatched drives the same streams through a Pool, one slot per stream,
// under sched. It returns per-stream predictions and fingerprints in the
// same shape as runSerial.
func runBatched(t *testing.T, cfg core.Config, streams [][]Event, sched schedule) (preds [][]pred, fps []uint64) {
	t.Helper()
	pool := NewPool(NewEngine(cfg, len(streams)))
	ids := make([]int, len(streams))
	for s := range streams {
		id, ok := pool.Admit()
		if !ok {
			t.Fatalf("admission refused with capacity %d", len(streams))
		}
		ids[s] = id
	}
	sched(pool, ids, streams)

	preds = make([][]pred, len(streams))
	for _, r := range pool.Results() {
		// Pool ids are admission-ordered, matching the streams index.
		preds[r.Stream] = append(preds[r.Stream], pred{pc: r.PC, target: r.Predicted, ok: r.OK})
	}
	fps = make([]uint64, len(streams))
	for s, id := range ids {
		fps[s] = pool.Predictor(id).Fingerprint()
	}
	return preds, fps
}

func diffStreams(t *testing.T, label string, wantP [][]pred, wantF []uint64, gotP [][]pred, gotF []uint64) {
	t.Helper()
	for s := range wantP {
		if len(gotP[s]) != len(wantP[s]) {
			t.Fatalf("%s: stream %d served %d predictions, serial made %d", label, s, len(gotP[s]), len(wantP[s]))
		}
		for i := range wantP[s] {
			if gotP[s][i] != wantP[s][i] {
				t.Fatalf("%s: stream %d prediction %d: batched %+v != serial %+v", label, s, i, gotP[s][i], wantP[s][i])
			}
		}
		if gotF[s] != wantF[s] {
			t.Fatalf("%s: stream %d final state fingerprint: batched %#x != serial %#x", label, s, gotF[s], wantF[s])
		}
	}
}

// TestBatchedMatchesSerial is the differential gate: for several stream
// counts and seeds, the pooled engine must reproduce, bit for bit, each
// stream's serial Predict/Update run — every prediction's (pc, target, ok)
// and the final trained state — both when every event is queued before a
// full-width drain, under a random interleaving, and through recycled ids
// (recycled). The last two rows are the serving workload (ServingConfig
// over GenStreams(1234, w, 512)) at widths 1 and 64.
func TestBatchedMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		cfg      core.Config
		seed     int64
		nStreams int
		nEvents  int
	}{
		{cfg: smallConfig(), seed: 1, nStreams: 1, nEvents: 600},
		{cfg: smallConfig(), seed: 2, nStreams: 3, nEvents: 400},
		{cfg: smallConfig(), seed: 3, nStreams: 8, nEvents: 300},
		{cfg: smallConfig(), seed: 4, nStreams: 16, nEvents: 200},
		{cfg: ServingConfig(), seed: 1234, nStreams: 1, nEvents: 512},
		{cfg: ServingConfig(), seed: 1234, nStreams: 64, nEvents: 512},
	} {
		streams := GenStreams(tc.seed, tc.nStreams, tc.nEvents)
		wantP, wantF := runSerial(tc.cfg, streams)
		for _, sc := range []struct {
			name  string
			sched schedule
		}{
			{"feed-then-drain", feedThenDrain},
			{"interleaved", interleaved(tc.seed)},
			{"recycled", recycled(tc.seed, interleaved(tc.seed))},
		} {
			gotP, gotF := runBatched(t, tc.cfg, streams, sc.sched)
			label := fmt.Sprintf("seed %d, %d streams, %s", tc.seed, tc.nStreams, sc.name)
			diffStreams(t, label, wantP, wantF, gotP, gotF)
		}
	}
}

// FuzzBatchEquivalence fuzzes the same property over workload shape: any
// seed, stream count, and event volume must keep the batched engine
// bit-identical to the per-stream serial reference, on fresh ids and on
// recycled ones.
func FuzzBatchEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(200))
	f.Add(int64(42), uint8(5), uint16(350))
	f.Add(int64(-7), uint8(1), uint16(64))
	f.Add(int64(1<<40), uint8(12), uint16(120))
	cfg := smallConfig()
	f.Fuzz(func(t *testing.T, seed int64, nStreams uint8, nEvents uint16) {
		s := 1 + int(nStreams)%16
		n := 1 + int(nEvents)%400
		streams := GenStreams(seed, s, n)
		wantP, wantF := runSerial(cfg, streams)
		gotP, gotF := runBatched(t, cfg, streams, interleaved(seed))
		diffStreams(t, "fuzz", wantP, wantF, gotP, gotF)
		gotP, gotF = runBatched(t, cfg, streams, recycled(seed, interleaved(seed)))
		diffStreams(t, "fuzz, recycled", wantP, wantF, gotP, gotF)
	})
}
