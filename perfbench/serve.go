package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"blbp/internal/batch"
	"blbp/internal/core"
)

const (
	// serveWidth is the pool's stream count and Step batch size.
	serveWidth = 64
	// serveFamilies is how many independently seeded stream families the
	// rounds cycle through. GenStreams draws each stream's sites, target
	// sets and conditional mix at random, so one family's work varies a
	// lot with the seed; a repetition over eight averages that out.
	serveFamilies = 8
	// serveIndirect is the most indirect events a stream keeps (see kept).
	// A stream of 4096 events holds 683 ± 24 of them at the sparsest mix.
	serveIndirect = 512
)

// kept is how many indirect events stream s of a family keeps: 512, 341,
// 256, 204 or 170, by s mod 5. GenStreams draws each stream's
// conditional:indirect mix at random, so cutting the streams after a fixed
// count gives a repetition the same number of predictions, and its result
// log the same growth, at every seed; counts that differ from stream to
// stream keep the streams draining at different rates.
func kept(s int) int { return serveIndirect * 2 / (2 + s%5) }

// serveBench is a closed loop with one caller. A repetition walks the
// stream families in order: for each it admits 64 fresh streams into a
// batch.Pool (Retire and Admit reset their predictors), then runs its share
// of the rounds, each feeding the family's events and Stepping the pool
// until drained. Every repetition serves the identical prediction sequence.
type serveBench struct {
	o   *options
	cfg core.Config
	chk checks

	families  [][][]batch.Event // [family][stream] events
	perFamily []int             // indirect events per family
	serial    [][]pred          // family 0 replayed serially from a fresh state
	serialFP  []uint64          // and the streams' final state fingerprints
	singles   []float64         // that replay's rate per set-up, M predictions/s

	pool   *batch.Pool
	ids    []int
	lat    []int64 // Step latencies of every untraced repetition, ns
	digest uint64  // stream-state digest after the first repetition

}

type pred struct {
	target uint64
	ok     bool
}

func newServeBench(o *options) *serveBench { return &serveBench{o: o, cfg: batch.ServingConfig()} }

func (b *serveBench) checks() *checks { return &b.chk }
func (b *serveBench) close()          {}

// familySeed maps the benchmark seed onto batch.GenStreams: at the default
// seed family 0 is drawn from seed 1234, the stream family cmd/bench and
// the batch tests use.
func (b *serveBench) familySeed(f int) int64 { return 1233 + b.o.seed + int64(f)*100_003 }

// setup generates the stream families, replays family 0 serially as the
// reference, and runs the batched-vs-serial differential check on a fresh
// pool.
func (b *serveBench) setup() error {
	b.families = make([][][]batch.Event, serveFamilies)
	b.perFamily = make([]int, serveFamilies)
	for f := range b.families {
		b.families[f] = batch.GenStreams(b.familySeed(f), serveWidth, b.o.events)
		for s, evs := range b.families[f] {
			n := 0
			for i, ev := range evs {
				if ev.Kind == batch.Indirect {
					if n == kept(s) {
						b.families[f][s] = evs[:i]
						break
					}
					n++
				}
			}
			b.perFamily[f] += n
		}
	}
	b.serial = make([][]pred, serveWidth)
	b.serialFP = make([]uint64, serveWidth)
	t0 := now()
	for s, evs := range b.families[0] {
		p := core.New(b.cfg)
		for _, ev := range evs {
			if ev.Kind == batch.Cond {
				p.OnCond(ev.PC, ev.Taken)
				continue
			}
			t, ok := p.Predict(ev.PC)
			b.serial[s] = append(b.serial[s], pred{t, ok})
			p.Update(ev.PC, ev.Target)
		}
		b.serialFP[s] = p.Fingerprint()
	}
	b.singles = append(b.singles, float64(b.perFamily[0])/float64(now()-t0)*1e3)

	b.pool = batch.NewPool(batch.NewEngine(b.cfg, serveWidth))
	b.ids = make([]int, serveWidth)
	for s := range b.ids {
		id, ok := b.pool.Admit()
		if !ok {
			return fmt.Errorf("pool refused stream %d", s)
		}
		b.ids[s] = id
	}
	b.feed(0)
	served := b.pool.Drain(serveWidth)
	b.checkRound(b.pool.TakeResults(), served)
	return nil
}

func (b *serveBench) feed(family int) {
	for s, evs := range b.families[family] {
		for _, ev := range evs {
			b.pool.Feed(b.ids[s], ev)
		}
	}
}

// checkRound compares family 0 served from fresh streams with the serial
// reference: every prediction, in per-stream order, and each stream's
// final state.
func (b *serveBench) checkRound(res []batch.Result, served int) {
	got := make([][]pred, serveWidth)
	for _, r := range res {
		got[r.Stream] = append(got[r.Stream], pred{r.Predicted, r.OK})
	}
	ok := served == b.perFamily[0]
	for s := 0; ok && s < serveWidth; s++ {
		ok = slices.Equal(got[s], b.serial[s]) && b.pool.Predictor(b.ids[s]).Fingerprint() == b.serialFP[s]
	}
	b.chk.check(ok, "batched round diverged from the serial reference (served %d, want %d)", served, b.perFamily[0])
}

// reset returns every stream to its freshly constructed state.
func (b *serveBench) reset() {
	for _, id := range b.ids {
		b.pool.Retire(id)
	}
	for s := range b.ids {
		b.ids[s], _ = b.pool.Admit()
	}
}

// familyOf is the stream family round r of a repetition serves.
func (b *serveBench) familyOf(r int) int { return r * serveFamilies / b.o.rounds }

// serve runs the repetition's rounds through admit, feed and step and
// returns the indirect events served.
func (b *serveBench) serve(admit func(), feed func(family int), step func() int) int {
	served, family := 0, -1
	for r := 0; r < b.o.rounds; r++ {
		if f := b.familyOf(r); f != family {
			family = f
			admit()
		}
		feed(family)
		for {
			n := step()
			if n == 0 {
				break
			}
			served += n
		}
		b.pool.TakeResults()
	}
	return served
}

// want is the indirect events one repetition serves.
func (b *serveBench) want() int {
	n := 0
	for r := 0; r < b.o.rounds; r++ {
		n += b.perFamily[b.familyOf(r)]
	}
	return n
}

func (b *serveBench) rep() (sample, error) {
	served := 0
	b.lat = slices.Grow(b.lat, 2*b.want()/serveWidth)
	s, err := measure(func() error {
		served = b.serve(b.reset, b.feed, func() int {
			t := now()
			n := b.pool.Step(serveWidth)
			if n > 0 {
				b.lat = append(b.lat, now()-t)
			}
			return n
		})
		return nil
	})
	b.chk.check(served == b.want(), "repetition served %d predictions, want %d", served, b.want())
	b.checkDigest()
	return s, err
}

// checkDigest checks that every repetition leaves the streams in the state
// the first one did.
func (b *serveBench) checkDigest() {
	h := fnv.New64a()
	for _, id := range b.ids {
		h.Write(binary.LittleEndian.AppendUint64(nil, b.pool.Predictor(id).Fingerprint()))
	}
	d := h.Sum64()
	if b.digest == 0 {
		b.digest = d
		return
	}
	b.chk.check(d == b.digest, "stream state after the repetition differs from the first repetition's")
}

// traced is rep with Pool.Feed sampled and every Pool.Step timed, followed
// (outside the traced wall) by an engine-level replay that splits a warmed
// round into Engine.OnCond, PredictBatch and UpdateBatch.
func (b *serveBench) traced(l *ledger) (int64, error) {
	s := l.nextSampler()
	feed := &l.probes[stBatchFeed]
	steps := 0
	t0 := now()
	served := b.serve(func() { l.timed(stBatchAdmit, stageNames[stBatchAdmit], b.reset) }, func(family int) {
		id := l.open("batch.feed")
		for si, evs := range b.families[family] {
			for _, ev := range evs {
				feed.calls++
				if !s.hit() {
					b.pool.Feed(b.ids[si], ev)
					continue
				}
				t := now()
				b.pool.Feed(b.ids[si], ev)
				s.took(feed, now()-t)
			}
		}
		l.close(id)
	}, func() int {
		t := now()
		n := b.pool.Step(serveWidth)
		l.self[stBatchStep] += float64(now() - t)
		steps++
		return n
	})
	wall := now() - t0
	b.chk.check(served == b.want(), "traced repetition served %d predictions, want %d", served, b.want())
	b.checkDigest()
	l.layers["batch.fill"] = float64(served) / float64(steps-b.o.rounds) / serveWidth
	l.layers["batch.single_stream_mpps"] = medianOf(b.singles)
	b.engineSplit(l)
	return wall, nil
}

// engineSplit drives fresh engine slots through family 0 twice with the
// Pool's fill rule (one pending indirect event per stream per batch,
// leading conditional events applied first), checks the first round
// against the serial reference, and times the second, warmed round.
func (b *serveBench) engineSplit(l *ledger) {
	eng := batch.NewEngine(b.cfg, serveWidth)
	slots := make([]int, serveWidth)
	for s := range slots {
		slots[s], _ = eng.Admit()
	}
	streams := b.families[0]
	got := make([][]pred, serveWidth)
	bs := make([]int, 0, serveWidth)
	owners := make([]int, 0, serveWidth)
	pcs := make([]uint64, 0, serveWidth)
	acts := make([]uint64, 0, serveWidth)
	targets := make([]uint64, serveWidth)
	oks := make([]bool, serveWidth)
	smp := l.nextSampler()
	var ingest probe
	var predictNs, updateNs, total int64
	for round := 0; round < 2; round++ {
		ingest, predictNs, updateNs = probe{}, 0, 0
		pos := make([]int, serveWidth)
		t0 := now()
		for {
			bs, owners, pcs, acts = bs[:0], owners[:0], pcs[:0], acts[:0]
			for s, evs := range streams {
				for pos[s] < len(evs) && evs[pos[s]].Kind == batch.Cond {
					ev := evs[pos[s]]
					ingest.calls++
					if smp.hit() {
						t := now()
						eng.OnCond(slots[s], ev.PC, ev.Taken)
						smp.took(&ingest, now()-t)
					} else {
						eng.OnCond(slots[s], ev.PC, ev.Taken)
					}
					pos[s]++
				}
				if pos[s] == len(evs) {
					continue
				}
				ev := evs[pos[s]]
				pos[s]++
				bs, owners = append(bs, slots[s]), append(owners, s)
				pcs, acts = append(pcs, ev.PC), append(acts, ev.Target)
			}
			if len(bs) == 0 {
				break
			}
			t := now()
			eng.PredictBatch(bs, pcs, targets[:len(bs)], oks[:len(bs)])
			predictNs += now() - t
			t = now()
			eng.UpdateBatch(bs, pcs, acts)
			updateNs += now() - t
			if round == 0 {
				for i, s := range owners {
					got[s] = append(got[s], pred{targets[i], oks[i]})
				}
			}
		}
		total = now() - t0
		if round == 0 {
			ok := true
			for s := range got {
				ok = ok && slices.Equal(got[s], b.serial[s])
			}
			b.chk.check(ok, "engine-level replay diverged from the serial reference")
		}
	}
	l.layers["batch.predict_share"] = float64(predictNs) / float64(total)
	l.layers["batch.update_share"] = float64(updateNs) / float64(total)
	l.layers["batch.ingest_share"] = l.estimate(ingest) / float64(total)
}

// extra reports the Step latency distribution: a closed loop with one
// caller, so each Step's service time is its latency.
func (b *serveBench) extra() map[string]any {
	lat := append([]int64(nil), b.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return map[string]any{
		"step_samples": len(lat),
		"step_p50_us":  float64(percentile(lat, 50)) / 1e3,
		"step_p99_us":  float64(percentile(lat, 99)) / 1e3,
		"family_seeds": []int64{b.familySeed(0), b.familySeed(serveFamilies - 1)},
	}
}
