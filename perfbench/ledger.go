package main

import (
	"runtime/metrics"
	"time"

	"blbp/internal/cond"
	"blbp/internal/predictor"
	"blbp/internal/trace"
)

// stage is one row of the traced run's ledger: a span of time spent inside
// one layer's public functions, measured from outside by the benchmark.
type stage int

const (
	stBuild         stage = iota // Cache.Get that ran the generator
	stDecode                     // Cache.Get served from a spill file
	stGet                        // Cache.Get served from memory
	stFlush                      // Cache.Close with KeepSpill
	stTapeMemo                   // Entry.Tape plus the priming Tape.Run (self)
	stCondPredict                // hashed perceptron Predict during the memo
	stCondTrain                  // hashed perceptron Train during the memo
	stCondHistory                // hashed perceptron UpdateHistory/OnOther
	stCondConstruct              // hashed perceptron construction per pass
	stFullEngine                 // the cond-bound (VPC) pass: build + RunColumns
	stReplay                     // Tape.Run minus wrapped predictor calls
	stBLBPPredict
	stBLBPUpdate
	stBLBPIngest
	stBLBPConstruct
	stITTAGEPredict
	stITTAGEUpdate
	stITTAGEIngest
	stITTAGEConstruct
	stBTBPredict
	stBTBUpdate
	stBTBIngest
	stBTBConstruct
	stRender     // memo-hit runspec Exec.Run
	stBatchFeed  // batch.Pool.Feed
	stBatchStep  // batch.Pool.Step
	stBatchAdmit // batch.Pool.Retire and Admit of a family's fresh streams
	stTimer      // the benchmark's own clock reads (estimated)
	numStages
)

var stageNames = [numStages]string{
	"workload.build", "trace.spill_decode", "tracecache.get", "tracecache.flush",
	"sim.tape_memo", "cond.predict", "cond.train", "cond.history", "cond.construct",
	"sim.full_engine", "sim.replay",
	"blbp.predict", "blbp.update", "blbp.ingest", "blbp.construct",
	"ittage.predict", "ittage.update", "ittage.ingest", "ittage.construct",
	"btb.predict", "btb.update", "btb.ingest", "btb.construct",
	"runspec.render", "batch.feed", "batch.step", "batch.admit", "bench.timer",
}

// Indirect predictor kinds the ledger separates; each owns four stages in
// the order predict, update, ingest, construct.
var kindStage = map[string]stage{"blbp": stBLBPPredict, "ittage": stITTAGEPredict, "btb": stBTBPredict}

const (
	methPredict = iota
	methUpdate
	methIngest
	methConstruct
)

// parentOf names the frame a sampled call runs inside: its estimated time
// and its clock cost are taken out of that frame's self time. Stages
// without a parent frame are called from the benchmark's own loop.
func parentOf(st stage) (stage, bool) {
	switch {
	case st >= stCondPredict && st <= stCondHistory:
		return stTapeMemo, true
	case st >= stBLBPPredict && st <= stBTBConstruct:
		return stReplay, true
	}
	return 0, false
}

// epoch anchors now: time.Since on a monotonic reading costs one clock
// read, half of what time.Now costs.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// sampleMask times one call in 16. A clock read costs about as much as a
// history-ingest call, so timing every call would bury the cheap stages
// under the benchmark's own overhead.
const sampleMask = 15

// sampler decides which calls to time: an xorshift sequence, so sampling
// never locks onto a period of the replay loop.
type sampler struct {
	x, mask uint64
	clock   *clockProbe // nil in calibration
}

func newSampler(seed uint64, clock *clockProbe) sampler {
	return sampler{x: seed | 1, mask: sampleMask, clock: clock}
}

func (s *sampler) hit() bool {
	x := s.x
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.x = x
	return x&s.mask == 0
}

// sampleCap bounds one sample. No engine-facing call takes this long
// (span ingest of a long segment takes a few microseconds), but a sample
// that catches a host preemption or a GC pause would, scaled by 16, book
// milliseconds of stall to the call; capped, the stall stays in the
// enclosing frame, as it does for every unsampled call.
const sampleCap = 20_000 // ns

// took records a sampled call of duration d and, on one sample in eight,
// measures the clock in place.
func (s *sampler) took(p *probe, d int64) {
	p.samples++
	p.ns += min(d, sampleCap)
	if s.clock != nil && s.x>>8&7 == 0 {
		a := now()
		s.clock.ns += min(now()-a, sampleCap)
		s.clock.n++
		p.clocks++
	}
}

// probe counts one wrapped method's calls and accumulates the durations of
// the sampled ones; clocks counts the clock probes its samples took.
type probe struct{ calls, samples, ns, clocks int64 }

// clockProbe is what a clock read costs during the traced repetition.
// The host's speed drifts by tens of percent within seconds, so the
// start-up calibration is rescaled by this in-place measurement.
type clockProbe struct{ ns, n int64 }

// clock is the measured cost of timing one sampled call: in is the part
// that lands inside the timed interval, pair the whole cost to the caller,
// read the interval between two back-to-back clock reads.
type clock struct{ in, pair, read float64 }

// calibrate measures the timing overhead on the same wrapper type the
// replay uses, around a predictor that does nothing, called through the
// interface as Tape.Run calls it. Each figure is the least of five trials.
func calibrate() clock {
	best := clock{in: -1, pair: -1, read: -1}
	low := func(cur *float64, v float64) {
		if *cur < 0 || v < *cur {
			*cur = v
		}
	}
	for trial := 0; trial < 5; trial++ {
		var pa, pn probe
		var records int64
		all := &timedIndirect{in: nopIndirect{}, s: sampler{x: 1}, ingest: &pa, records: &records}
		none := &timedIndirect{in: nopIndirect{}, s: sampler{x: 1, mask: ^uint64(0)}, ingest: &pn, records: &records}
		const n = 1 << 17
		run := func(ip predictor.Indirect) int64 {
			t0 := now()
			for i := 0; i < n; i++ {
				ip.OnCond(uint64(i), i&1 == 0)
			}
			return now() - t0
		}
		tAll, tNone := run(all), run(none)
		var read int64
		for i := 0; i < n; i++ {
			a := now()
			read += now() - a
		}
		low(&best.in, float64(pa.ns)/float64(pa.samples))
		low(&best.pair, float64(tAll-tNone)/n)
		low(&best.read, float64(read)/n)
	}
	best.pair = max(best.pair, best.in)
	return best
}

// span is one timed frame of the traced run, kept in memory and written
// with the detailed report.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// ledger attributes a traced repetition's wall time to stages.
type ledger struct {
	clk    clock
	self   [numStages]float64 // ns measured directly (whole frames)
	probes [numStages]probe   // sampled calls
	allocs [numStages]float64 // bytes allocated inside build and construct frames
	clock  clockProbe
	spans  []span
	cur    int
	seed   uint64

	ingestRecords, spanRecords int64 // records fed to indirect predictors
	tasks                      int64
	taskMaxNs                  int64

	// layers holds the workload's own per-layer readings of this
	// repetition (cache counters, batch shares).
	layers map[string]float64
}

func newLedger(clk clock) *ledger {
	return &ledger{clk: clk, cur: -1, seed: 0x9e3779b97f4a7c15, layers: map[string]float64{}}
}

// open starts a span and returns its id.
func (l *ledger) open(name string) int {
	l.spans = append(l.spans, span{Name: name, Parent: l.cur, Start: now()})
	l.cur = len(l.spans) - 1
	return l.cur
}

// close ends span id and returns its duration.
func (l *ledger) close(id int) int64 {
	sp := &l.spans[id]
	sp.End = now()
	l.cur = sp.Parent
	return sp.End - sp.Start
}

// timed runs f as a span whose whole duration is stage st's self time.
func (l *ledger) timed(st stage, name string, f func()) {
	id := l.open(name)
	f()
	l.self[st] += float64(l.close(id))
}

// timedAlloc is timed plus the heap bytes f allocated.
func (l *ledger) timedAlloc(st stage, name string, f func()) {
	a0 := heapAllocs()
	l.timed(st, name, f)
	l.allocs[st] += float64(heapAllocs() - a0)
}

func (l *ledger) nextSampler() sampler {
	l.seed += 0x9e3779b97f4a7c15
	return newSampler(l.seed, &l.clock)
}

// cost is the calibrated clock cost rescaled to the host speed the
// repetition actually saw.
func (l *ledger) cost() clock {
	c := l.clk
	if l.clock.n > 0 && c.read > 0 {
		f := float64(l.clock.ns) / float64(l.clock.n) / c.read
		c.in, c.pair, c.read = c.in*f, c.pair*f, c.read*f
	}
	return c
}

// estimate scales a probe's sampled time, less the clock cost inside each
// sample, up to all of its calls. A call cheaper than the calibration's
// error (a no-op OnCond) can come out negative; it reads as zero.
func (l *ledger) estimate(p probe) float64 {
	if p.samples == 0 {
		return 0
	}
	return max(0, (float64(p.ns)-float64(p.samples)*l.cost().in)*float64(p.calls)/float64(p.samples))
}

// stageNs resolves the ledger into per-stage self times. A parent frame's
// self time is its measured time less its children's estimates and the
// clock reads they cost; those reads become the bench.timer row, so the
// rows still add up to the time the frames covered. A timed call cannot
// overlap with the work around it, so it runs a little slower than an
// untimed one; when a frame does little work of its own (sim.replay
// around many cheap ingest calls) that bias can take its row below zero.
func (l *ledger) stageNs() [numStages]float64 {
	ns := l.self
	pair := l.cost().pair
	for st := stage(0); st < numStages; st++ {
		p := l.probes[st]
		if p.calls == 0 {
			continue
		}
		est := l.estimate(p)
		cost := float64(p.samples+p.clocks) * pair
		ns[st] += est
		ns[stTimer] += cost
		if parent, ok := parentOf(st); ok {
			ns[parent] -= est + cost
		}
	}
	return ns
}

// heapAllocs reads the cumulative heap allocation counter without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timedIndirect wraps an indirect predictor with sampled timing of its
// engine-facing calls. It deliberately implements only predictor.Indirect:
// a wrapped predictor that is a predictor.SpanFeeder gets timedSpanIndirect
// instead, so Tape.Run takes exactly the path it takes untraced.
type timedIndirect struct {
	in                      predictor.Indirect
	s                       sampler
	predict, update, ingest *probe
	records                 *int64
}

func (t *timedIndirect) Name() string     { return t.in.Name() }
func (t *timedIndirect) StorageBits() int { return t.in.StorageBits() }

func (t *timedIndirect) Predict(pc uint64) (uint64, bool) {
	t.predict.calls++
	if !t.s.hit() {
		return t.in.Predict(pc)
	}
	t0 := now()
	target, ok := t.in.Predict(pc)
	t.s.took(t.predict, now()-t0)
	return target, ok
}

func (t *timedIndirect) Update(pc, actual uint64) {
	t.update.calls++
	if !t.s.hit() {
		t.in.Update(pc, actual)
		return
	}
	t0 := now()
	t.in.Update(pc, actual)
	t.s.took(t.update, now()-t0)
}

func (t *timedIndirect) OnCond(pc uint64, taken bool) {
	t.ingest.calls++
	*t.records++
	if !t.s.hit() {
		t.in.OnCond(pc, taken)
		return
	}
	t0 := now()
	t.in.OnCond(pc, taken)
	t.s.took(t.ingest, now()-t0)
}

func (t *timedIndirect) OnOther(pc, target uint64, bt trace.BranchType) {
	t.ingest.calls++
	*t.records++
	if !t.s.hit() {
		t.in.OnOther(pc, target, bt)
		return
	}
	t0 := now()
	t.in.OnOther(pc, target, bt)
	t.s.took(t.ingest, now()-t0)
}

// timedSpanIndirect is timedIndirect for a predictor.SpanFeeder.
type timedSpanIndirect struct {
	timedIndirect
	sf    predictor.SpanFeeder
	spans *int64
}

func (t *timedSpanIndirect) OnCondSpan(c *trace.Columns, start, end int) {
	t.ingest.calls++
	*t.records += int64(end - start)
	*t.spans += int64(end - start)
	if !t.s.hit() {
		t.sf.OnCondSpan(c, start, end)
		return
	}
	t0 := now()
	t.sf.OnCondSpan(c, start, end)
	t.s.took(t.ingest, now()-t0)
}

func (t *timedSpanIndirect) OnOtherSpan(c *trace.Columns, start, end int, bt trace.BranchType) {
	t.ingest.calls++
	*t.records += int64(end - start)
	*t.spans += int64(end - start)
	if !t.s.hit() {
		t.sf.OnOtherSpan(c, start, end, bt)
		return
	}
	t0 := now()
	t.sf.OnOtherSpan(c, start, end, bt)
	t.s.took(t.ingest, now()-t0)
}

// wrapIndirect times ip's calls under the stages of predictor kind base.
func (l *ledger) wrapIndirect(ip predictor.Indirect, base stage) predictor.Indirect {
	t := timedIndirect{
		in: ip, s: l.nextSampler(), records: &l.ingestRecords,
		predict: &l.probes[base+methPredict], update: &l.probes[base+methUpdate], ingest: &l.probes[base+methIngest],
	}
	if sf, ok := ip.(predictor.SpanFeeder); ok {
		return &timedSpanIndirect{timedIndirect: t, sf: sf, spans: &l.spanRecords}
	}
	return &t
}

// timedCond wraps the conditional predictor the priming replay drives. The
// hashed perceptron is no cond.TargetTrainer, so neither is the wrapper.
type timedCond struct {
	in                      cond.Predictor
	s                       sampler
	predict, train, history *probe
}

func (l *ledger) wrapCond(cp cond.Predictor) cond.Predictor {
	return &timedCond{in: cp, s: l.nextSampler(),
		predict: &l.probes[stCondPredict], train: &l.probes[stCondTrain], history: &l.probes[stCondHistory]}
}

func (t *timedCond) Name() string     { return t.in.Name() }
func (t *timedCond) StorageBits() int { return t.in.StorageBits() }

func (t *timedCond) Predict(pc uint64) bool {
	t.predict.calls++
	if !t.s.hit() {
		return t.in.Predict(pc)
	}
	t0 := now()
	taken := t.in.Predict(pc)
	t.s.took(t.predict, now()-t0)
	return taken
}

func (t *timedCond) Train(pc uint64, taken bool) {
	t.train.calls++
	if !t.s.hit() {
		t.in.Train(pc, taken)
		return
	}
	t0 := now()
	t.in.Train(pc, taken)
	t.s.took(t.train, now()-t0)
}

func (t *timedCond) UpdateHistory(pc uint64, taken bool) {
	t.history.calls++
	if !t.s.hit() {
		t.in.UpdateHistory(pc, taken)
		return
	}
	t0 := now()
	t.in.UpdateHistory(pc, taken)
	t.s.took(t.history, now()-t0)
}

func (t *timedCond) OnOther(pc, target uint64, bt trace.BranchType) {
	t.history.calls++
	if !t.s.hit() {
		t.in.OnOther(pc, target, bt)
		return
	}
	t0 := now()
	t.in.OnOther(pc, target, bt)
	t.s.took(t.history, now()-t0)
}

// nopIndirect is the indirect predictor of the priming replay (Tape.Run
// needs one) and of the clock calibration: it does nothing, and consumes
// spans whole so the priming replay stays cheap.
type nopIndirect struct{}

func (nopIndirect) Name() string                                           { return "nop" }
func (nopIndirect) Predict(uint64) (uint64, bool)                          { return 0, false }
func (nopIndirect) Update(uint64, uint64)                                  {}
func (nopIndirect) OnCond(uint64, bool)                                    {}
func (nopIndirect) OnOther(uint64, uint64, trace.BranchType)               {}
func (nopIndirect) StorageBits() int                                       { return 0 }
func (nopIndirect) OnCondSpan(*trace.Columns, int, int)                    {}
func (nopIndirect) OnOtherSpan(*trace.Columns, int, int, trace.BranchType) {}
