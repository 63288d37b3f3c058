package core

import (
	mathbits "math/bits"

	"blbp/internal/hashing"
	"blbp/internal/history"
	"blbp/internal/ibtb"
	"blbp/internal/threshold"
	"blbp/internal/trace"
)

// Lane geometry of the packed (bit-sliced) weight image: each table row's K
// transferred weights live in 16-bit biased lanes, four per uint64, so the
// per-bit column sum across sub-predictors is a handful of word adds instead
// of K×N byte loads.
const (
	laneBits     = 16
	lanesPerWord = 64 / laneBits
	laneMask     = 1<<laneBits - 1
)

// The limits Validate enforces. A lane holds transfer(w) + laneBias, at most
// 2*transferHi, so a column sum over maxSubPredictors rows stays within
// laneMask and never carries into the neighboring lane: 256 × 254 = 65,024.
const (
	maxWeightBits    uint = 8
	maxSubPredictors uint = 256
	// transferHi is the largest raw weight at maxWeightBits. It bounds
	// |transfer(w)| at every width Validate accepts while no
	// transferMagnitude entry exceeds it (TestTransferFunctionShapes).
	transferHi uint = 1<<(maxWeightBits-1) - 1
)

// The lane bound, checked by the compiler: limits whose worst-case column
// sum overflows a lane make this constant negative, which fails the build.
const _ uint = laneMask - maxSubPredictors*2*transferHi

// BLBP is the bit-level perceptron indirect branch predictor.
//
// It satisfies predictor.Indirect: the engine calls Predict(pc) followed
// immediately by Update(pc, actual) for every indirect branch, OnCond for
// conditional outcomes, and OnOther for remaining control transfers.
type BLBP struct {
	cfg Config

	// weights holds every sub-predictor table flattened into one contiguous
	// array: sub-predictor i's row r spans
	// weights[i*tableStride+r*K : i*tableStride+r*K+K], one weight per
	// predicted target bit. The flat layout keeps the whole prediction
	// working set in one allocation and lets Predict and Update share
	// precomputed absolute row offsets.
	weights     []int8
	tableStride int // TableEntries * K
	wMax        int8

	// transfer is the transfer-function lookup, indexed by weight - wMin.
	transfer []int

	// pweights is the bit-sliced image of the transferred weights: row
	// (i*TableEntries + r) spans wordsPerRow uint64s whose 16-bit lanes hold
	// transfer(weight) + laneBias per predicted bit. It is maintained at
	// weight-write time, so the per-prediction column sum is wordsPerRow
	// word adds per sub-predictor (sumRows) instead of K byte loads — and a
	// whole batch of streams can be summed in one sweep over their tables
	// (internal/batch).
	pweights    []uint64
	wordsPerRow int // ceil(K / lanesPerWord)
	// laneBias is the max |transfer| value: it biases lanes non-negative.
	laneBias int
	sumBias  int // SubPredictors() * laneBias, subtracted on unpack

	buffer     ibtb.Buffer
	hier       *ibtb.Hierarchy // buffer if two-level, else nil: its lookup reports L2 probes
	ghist      *history.FoldedSet
	ghistFolds []history.FoldID // one registered fold per interval table
	local      *history.Local
	thetas     []*threshold.Adaptive

	// Prediction-time state cached for the matching Update call.
	lastPC uint64
	lastOK bool
	rowOff []int // absolute weight offset of each sub-predictor's active row
	// pRowOff holds the absolute pweights offset of the same rows, one per
	// sub-predictor: ranging over it is what bounds a lane accumulation.
	pRowOff      []int
	acc          [8]uint64
	yout         [64]int // per-bit summed confidence (first K entries live)
	suppressMask uint64  // bit k set = selective training suppresses bit k
	kMask        uint64  // low K bits

	candBuf  []uint64
	candBits []uint64 // candidate targets pre-shifted by BitOffset

	// obs, when attached by Observe, counts each prediction's candidate set
	// and IBTB lookup. It is not predictive state: nothing encodes it.
	obs *Observation
}

// Observation holds the counts the latency and hierarchy outputs read of a
// BLBP, which counts into it while it is attached (Observe). Both outputs
// are paper analyses (§3.7, §6), not predictor behavior, so the counts live
// here rather than in the predictor or its snapshot.
type Observation struct {
	// Candidates[n] counts the predictions made over n candidate targets;
	// the final bucket also counts every larger set. Observe sizes an empty
	// histogram to the predictor's largest candidate set plus one.
	Candidates []int64
	// Lookups counts the lookups of a two-level IBTB and L2Probes those
	// that probed its second level; a monolithic IBTB leaves both 0.
	Lookups, L2Probes int64
}

// New constructs a BLBP predictor from cfg, panicking on invalid
// configurations (they are programming errors in this codebase; use
// cfg.Validate to check dynamic configurations first).
func New(cfg Config) *BLBP {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.SubPredictors()
	stride := cfg.TableEntries * cfg.K
	maxW := int8(1<<uint(cfg.WeightBits-1) - 1)
	thetas := make([]*threshold.Adaptive, cfg.K)
	// 18 per table is only the θ ceiling, not a transfer bound: the table
	// tops out at 13 for the paper's 4-bit weights, 7 with the transfer
	// function off, 127 for 8-bit weights with it off. Changing it moves
	// the committed results.
	maxYout := n * 18
	for k := range thetas {
		thetas[k] = threshold.New(cfg.ThetaInit, 16, 1, maxYout)
	}
	var buffer ibtb.Buffer
	var hier *ibtb.Hierarchy
	if cfg.UseHierarchicalIBTB {
		hier = ibtb.NewHierarchy(cfg.IBTBHierarchy)
		buffer = hier
	} else {
		buffer = ibtb.New(cfg.IBTB)
	}
	candCap := cfg.maxCandidates()
	ghist := history.NewFoldedSet(cfg.HistBits)
	folds := make([]history.FoldID, len(cfg.Intervals))
	for i := range folds {
		lo, hi := cfg.interval(i)
		folds[i] = ghist.Register(lo, hi, 22)
	}
	transfer := buildTransferTable(cfg.WeightBits, cfg.UseTransfer)
	bias := 0
	for _, v := range transfer {
		if v < 0 {
			v = -v
		}
		if v > bias {
			bias = v
		}
	}
	wpr := (cfg.K + lanesPerWord - 1) / lanesPerWord
	p := &BLBP{
		cfg:         cfg,
		weights:     make([]int8, n*stride),
		pweights:    make([]uint64, n*cfg.TableEntries*wpr),
		wordsPerRow: wpr,
		laneBias:    bias,
		sumBias:     n * bias,
		tableStride: stride,
		wMax:        maxW,
		transfer:    transfer,
		buffer:      buffer,
		hier:        hier,
		ghist:       ghist,
		ghistFolds:  folds,
		local:       history.NewLocal(cfg.LocalEntries, cfg.LocalBits),
		thetas:      thetas,
		rowOff:      make([]int, n),
		pRowOff:     make([]int, n),
		kMask:       uint64(1)<<uint(cfg.K) - 1,
		candBuf:     make([]uint64, 0, candCap),
		candBits:    make([]uint64, 0, candCap),
	}
	p.fillPackedBias()
	return p
}

// fillPackedBias writes the packed image of an all-zero weight table: every
// lane (including the padding lanes past K in a row's last word) holds
// transfer(0) + laneBias = laneBias.
func (p *BLBP) fillPackedBias() {
	w := uint64(p.laneBias)
	w |= w << laneBits
	w |= w << (2 * laneBits)
	for i := range p.pweights {
		p.pweights[i] = w
	}
}

// maxCandidates returns the largest candidate set the configured IBTB can
// return: its associativity, or both levels' for the hierarchy.
func (c *Config) maxCandidates() int {
	if c.UseHierarchicalIBTB {
		return c.IBTBHierarchy.L1.Assoc + c.IBTBHierarchy.L2.Assoc
	}
	return c.IBTB.Assoc
}

// interval returns the global-history interval indexing sub-predictor i+1
// under the configuration's UseIntervals setting.
func (c *Config) interval(i int) (lo, hi int) {
	if c.UseIntervals {
		return c.Intervals[i].Lo, c.Intervals[i].Hi
	}
	return 0, c.GEHLLengths[i] - 1
}

// Name implements predictor.Indirect.
func (p *BLBP) Name() string { return "blbp" }

// Config returns the configuration the predictor was built with.
func (p *BLBP) Config() Config { return p.cfg }

// computeRows fills p.rowOff and p.pRowOff with each sub-predictor's
// active-row offsets for pc under the current history state. The history
// folds are read from the incrementally maintained FoldedSet instead of
// being recomputed from the raw history bits.
//
//blbp:hot
func (p *BLBP) computeRows(pc uint64) {
	pcH := hashing.Mix64(pc)
	var row int
	if p.cfg.UseLocal {
		row = hashing.Index(hashing.Combine(pcH, p.local.Get(pc)), p.cfg.TableEntries)
	} else {
		row = hashing.Index(pcH, p.cfg.TableEntries)
	}
	p.rowOff[0] = row * p.cfg.K
	p.pRowOff[0] = row * p.wordsPerRow
	for i, id := range p.ghistFolds {
		fold := p.ghist.Value(id)
		row = hashing.Index(hashing.Combine(pcH+uint64(i+1), fold), p.cfg.TableEntries)
		p.rowOff[i+1] = (i+1)*p.tableStride + row*p.cfg.K
		p.pRowOff[i+1] = ((i+1)*p.cfg.TableEntries + row) * p.wordsPerRow
	}
}

// sumRows aggregates the per-bit confidences across sub-predictors
// (Algorithm 1's inner loops) from the packed weight image: wordsPerRow
// lane-wise word adds per sub-predictor, then one unpack into p.yout.
//
// sumRows leaves the lane sums in p.acc; the per-bit integers of p.yout
// are not unpacked here — prediction selects candidates directly on the
// packed lanes (similarity), and only training needs yout, so Update
// unpacks on demand.
//
//blbp:hot
func (p *BLBP) sumRows() {
	wpr := p.wordsPerRow
	acc := p.acc[:wpr]
	for w := range acc {
		acc[w] = 0
	}
	for _, base := range p.pRowOff {
		row := p.pweights[base : base+wpr]
		for w, v := range row {
			acc[w] += v
		}
	}
}

// unpackYout expands packed lane sums into the per-bit integer confidences
// of p.yout, removing the accumulated lane bias.
//
//blbp:hot
func (p *BLBP) unpackYout(acc []uint64) {
	yout := p.yout[:p.cfg.K]
	for k := range yout {
		lane := int(acc[k/lanesPerWord] >> (uint(k%lanesPerWord) * laneBits) & laneMask)
		yout[k] = lane - p.sumBias
	}
}

// setLane mirrors a weight write into the packed image: lane k of packed row
// prow becomes tv (a transferred weight) plus the lane bias.
//
//blbp:hot
func (p *BLBP) setLane(prow, k, tv int) {
	i := prow + k/lanesPerWord
	sh := uint(k%lanesPerWord) * laneBits
	p.pweights[i] = p.pweights[i]&^(uint64(laneMask)<<sh) | uint64(tv+p.laneBias)<<sh
}

// computeSuppress fills the selective-training mask: bit k is suppressed
// when every candidate agrees on it (paper §3.6, "Selective Bit Training").
// The mask only applies once the branch has at least two known targets:
// suppressing a singleton set entirely would leave the weights blank for
// the moment the branch turns polymorphic. candBits are the candidates
// already shifted down by BitOffset.
//
//blbp:hot
func (p *BLBP) computeSuppress(candBits []uint64) {
	if !p.cfg.UseSelective || len(candBits) < 2 {
		p.suppressMask = 0
		return
	}
	first := candBits[0]
	var differ uint64
	for _, c := range candBits[1:] {
		differ |= c ^ first
	}
	p.suppressMask = ^differ & p.kMask
}

// laneSel expands a nibble of candidate bits into the 16-bit lane-select
// mask of one packed accumulator word: bit j set selects lanes [16j,16j+16).
var laneSel = [16]uint64{
	0x0000000000000000, 0x000000000000ffff, 0x00000000ffff0000, 0x00000000ffffffff,
	0x0000ffff00000000, 0x0000ffff0000ffff, 0x0000ffffffff0000, 0x0000ffffffffffff,
	0xffff000000000000, 0xffff00000000ffff, 0xffff0000ffff0000, 0xffff0000ffffffff,
	0xffffffff00000000, 0xffffffff0000ffff, 0xffffffffffff0000, 0xffffffffffffffff,
}

// similarity computes the non-normalized cosine similarity between yout and
// a candidate target's pre-shifted bit vector: the sum of yout[k] over
// unsuppressed bits that are 1 in the candidate (paper §3.7). It reads the
// packed lane sums of the current prediction (p.acc) instead of iterating
// set bits: masking selected lanes and summing them horizontally costs a
// handful of word ops per row word regardless of how many bits are set,
// and the biased-lane identity lane[k] = yout[k] + sumBias makes the
// result exact — subtract one sumBias per selected bit at the end.
//
//blbp:hot
func (p *BLBP) similarity(candBits uint64) int {
	m := candBits &^ p.suppressMask & p.kMask
	if p.wordsPerRow == 3 {
		// K in 9..12 — the paper configuration's row shape, unrolled.
		// Horizontal lane sums: 16-bit lanes pairwise into 32-bit fields
		// (each at most 2^17, no carry), then fold the halves.
		x0 := p.acc[0] & laneSel[m&15]
		x1 := p.acc[1] & laneSel[m>>4&15]
		x2 := p.acc[2] & laneSel[m>>8&15]
		t0 := x0&0x0000ffff0000ffff + x0>>laneBits&0x0000ffff0000ffff
		t1 := x1&0x0000ffff0000ffff + x1>>laneBits&0x0000ffff0000ffff
		t2 := x2&0x0000ffff0000ffff + x2>>laneBits&0x0000ffff0000ffff
		total := (t0+t0>>32)&0xffffffff + (t1+t1>>32)&0xffffffff + (t2+t2>>32)&0xffffffff
		return int(total) - mathbits.OnesCount64(m)*p.sumBias
	}
	var total uint64
	for w := 0; w < p.wordsPerRow; w++ {
		x := p.acc[w] & laneSel[m>>(uint(w)*lanesPerWord)&(1<<lanesPerWord-1)]
		t := x&0x0000ffff0000ffff + x>>laneBits&0x0000ffff0000ffff
		total += (t + t>>32) & 0xffffffff
	}
	return int(total) - mathbits.OnesCount64(m)*p.sumBias
}

// prepare computes the pre-sum prediction state shared by Predict and
// Update's out-of-contract recompute — candidate targets with their
// pre-shifted bit vectors, active row offsets, and the suppress mask — so
// the paths can never drift. The per-bit sums themselves are produced
// separately (sumRows for the serial path, internal/batch's sweep for a
// batch of streams).
//
//blbp:hot
func (p *BLBP) prepare(pc uint64) {
	p.gather(pc)
	p.computeRows(pc)
}

// gather runs the candidate half of prepare: the IBTB lookup, the
// pre-shifted candidate bit vectors, and the suppress mask. It touches no
// history or weight state, and computeRows touches no IBTB state, so the
// two halves commute — internal/batch runs them as separate tight loops
// over a batch's items to overlap their scattered loads.
//
//blbp:hot
func (p *BLBP) gather(pc uint64) {
	if p.hier != nil {
		var l2 bool
		p.candBuf, l2 = p.hier.Lookup(pc, p.candBuf[:0])
		if p.obs != nil {
			p.obs.Lookups++
			if l2 {
				p.obs.L2Probes++
			}
		}
	} else {
		p.candBuf = p.buffer.Candidates(pc, p.candBuf[:0])
	}
	bits := p.candBits[:0]
	for _, c := range p.candBuf {
		bits = append(bits, c>>uint(p.cfg.BitOffset))
	}
	p.candBits = bits
	p.computeSuppress(bits)
}

// finishPredict selects among the prepared candidates using the packed lane
// sums in p.acc and records the prediction-time bookkeeping (the pending
// state for the matching Update, and the candidate count when observed).
//
//blbp:hot
func (p *BLBP) finishPredict(pc uint64) (uint64, bool) {
	candidates := p.candBuf
	if p.obs != nil {
		h := p.obs.Candidates
		h[min(len(candidates), len(h)-1)]++
	}
	p.lastPC, p.lastOK = pc, true
	if len(candidates) == 0 {
		return 0, false
	}
	best := candidates[0]
	bestSum := p.similarity(p.candBits[0])
	for i, c := range candidates[1:] {
		if s := p.similarity(p.candBits[i+1]); s > bestSum {
			best, bestSum = c, s
		}
	}
	return best, true
}

// Predict implements predictor.Indirect: Algorithm 1 of the paper. It is
// exactly the three batch phases run back to back for one pc — prepare,
// packed column sum, candidate selection — which is what keeps the batched
// path bit-identical to it.
//
//blbp:hot
func (p *BLBP) Predict(pc uint64) (uint64, bool) {
	p.prepare(pc)
	p.sumRows()
	return p.finishPredict(pc)
}

// BatchIndex runs only the row-indexing half of Predict's pre-sum phase
// (history folds and hashing); BatchGather runs the candidate half (IBTB
// lookup and suppress mask). The halves commute, so batched callers may
// loop each across a whole batch — one item's hashing overlapping another's
// buffer scan — before finishing any prediction.
func (p *BLBP) BatchIndex(pc uint64) { p.computeRows(pc) }

// BatchGather is the candidate half of the pre-sum phase; see BatchIndex.
func (p *BLBP) BatchGather(pc uint64) { p.gather(pc) }

// BatchRows returns the packed-row offsets computed by the last BatchIndex
// (or Predict), valid until the next one on this predictor.
func (p *BLBP) BatchRows() []int { return p.pRowOff }

// BatchTable returns the packed weight image summed by the batched sweep.
func (p *BLBP) BatchTable() []uint64 { return p.pweights }

// LaneWordsPerRow returns how many uint64s one packed row spans.
func (p *BLBP) LaneWordsPerRow() int { return p.wordsPerRow }

// BatchFinish completes a prediction whose lane sums were accumulated
// externally (the batched sweep): acc must hold the lane-wise sum of this
// predictor's BatchRows rows over LaneWordsPerRow words, exactly what
// sumRows would have produced.
func (p *BLBP) BatchFinish(pc uint64, acc []uint64) (uint64, bool) {
	copy(p.acc[:p.wordsPerRow], acc) // similarity and Update read the lane sums
	return p.finishPredict(pc)
}

// Update implements predictor.Indirect: Algorithm 2 of the paper. It stores
// the resolved target in the IBTB and trains each unsuppressed bit's
// perceptron weights toward the actual target's bits, gated by the per-bit
// adaptive thresholds.
//
//blbp:hot
func (p *BLBP) Update(pc, actual uint64) {
	if !p.lastOK || p.lastPC != pc {
		// Out-of-contract call (tests, replay): recompute prediction state
		// through the exact code path Predict uses.
		p.prepare(pc)
		p.sumRows()
	}
	p.lastOK = false
	p.unpackYout(p.acc[:p.wordsPerRow]) // training reads per-bit integers

	p.buffer.Insert(pc, actual)

	bits := actual >> uint(p.cfg.BitOffset)
	for m := ^p.suppressMask & p.kMask; m != 0; m &= m - 1 {
		k := mathbits.TrailingZeros64(m) & 63
		bit := bits>>uint(k)&1 == 1
		y := p.yout[k]
		a := y
		if a < 0 {
			a = -a
		}
		correct := (y >= 0) == bit
		th := p.cfg.ThetaInit
		if p.cfg.UseAdaptiveTheta {
			th = p.thetas[k].Theta()
			p.thetas[k].Observe(!correct, correct && a < th)
		}
		if correct && a >= th {
			continue
		}
		wMin := int(-p.wMax)
		if bit {
			for i, base := range p.rowOff {
				if w := p.weights[base+k]; w < p.wMax {
					p.weights[base+k] = w + 1
					p.setLane(p.pRowOff[i], k, p.transfer[int(w)+1-wMin])
				}
			}
		} else {
			for i, base := range p.rowOff {
				if w := p.weights[base+k]; w > -p.wMax {
					p.weights[base+k] = w - 1
					p.setLane(p.pRowOff[i], k, p.transfer[int(w)-1-wMin])
				}
			}
		}
	}

	p.local.Update(pc, actual>>3&1 == 1)
	if p.cfg.GlobalTargetBits > 0 {
		// Shift a hash of the target rather than its raw low bits so that
		// targets differing anywhere in the address (not just in bits the
		// alignment keeps zero) perturb the history.
		p.ghist.ShiftBits(hashing.Mix64(actual), p.cfg.GlobalTargetBits)
	}
}

// OnCond implements predictor.Indirect: conditional outcomes feed the
// 630-bit global history (paper §3.3).
//
//blbp:hot
func (p *BLBP) OnCond(pc uint64, taken bool) {
	p.ghist.Shift(taken)
	p.lastOK = false
}

// OnOther implements predictor.Indirect. BLBP's histories are built from
// conditional outcomes and indirect targets only, so other transfers are
// ignored.
func (p *BLBP) OnOther(pc, target uint64, bt trace.BranchType) {}

// OnCondSpan implements predictor.SpanFeeder: a whole conditional segment
// shifts into the global history through one call — identical to OnCond
// per record, with the interface dispatch amortized over the run (no fold
// is read mid-span, so the folds catch up once per 64 bits).
//
//blbp:hot
func (p *BLBP) OnCondSpan(c *trace.Columns, start, end int) {
	for i := start; i < end; i++ {
		p.ghist.Shift(c.At(i).Taken)
	}
	p.lastOK = false
}

// OnOtherSpan implements predictor.SpanFeeder. Like OnOther it is a no-op:
// whole jump/call/return segments cost one call instead of end-start.
func (p *BLBP) OnOtherSpan(c *trace.Columns, start, end int, bt trace.BranchType) {}

// Reset restores the predictor to its freshly constructed state: weights,
// packed image, IBTB, histories, thresholds and pending state. It detaches
// any Observation. internal/batch uses it to recycle stream slots without
// reallocating (admission of a new stream onto a retired slot).
func (p *BLBP) Reset() {
	for i := range p.weights {
		p.weights[i] = 0
	}
	p.fillPackedBias()
	p.buffer.Reset()
	p.ghist.Reset()
	p.local.Reset()
	for _, th := range p.thetas {
		th.Reset(p.cfg.ThetaInit)
	}
	p.lastPC, p.lastOK = 0, false
	p.suppressMask = 0
	p.candBuf = p.candBuf[:0]
	p.candBits = p.candBits[:0]
	p.obs = nil
}

// Observe attaches o: every later prediction counts into it until
// Observe(nil) or Reset detaches it. Observing changes no prediction, no
// Fingerprint and no encoded state.
func (p *BLBP) Observe(o *Observation) {
	if o != nil && len(o.Candidates) == 0 {
		o.Candidates = make([]int64, p.cfg.maxCandidates()+1)
	}
	p.obs = o
}

// Fingerprint hashes the predictor's trained state — weights, packed image,
// global and local histories, and thresholds — into one 64-bit FNV-1a
// digest. The batch differential suites compare it between a batched stream
// and its serial reference; the IBTB is excluded (its package owns its
// layout) but any buffer divergence surfaces in the predicted-target
// comparison those suites also make.
func (p *BLBP) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= prime64
		}
	}
	for _, w := range p.weights {
		mix(uint64(uint8(w)))
	}
	for _, w := range p.pweights {
		mix(w)
	}
	for i := 0; i < p.ghist.Capacity(); i++ {
		h ^= p.ghist.Bit(i)
		h *= prime64
	}
	for i := 0; i < p.local.Entries(); i++ {
		mix(p.local.Reg(i))
	}
	for _, th := range p.thetas {
		mix(uint64(th.Theta()))
	}
	return h
}

// StorageBits implements predictor.Indirect: the weight tables, IBTB (with
// its region array), global and local histories, and per-bit threshold
// state.
func (p *BLBP) StorageBits() int {
	bits := p.cfg.SubPredictors() * p.cfg.TableEntries * p.cfg.K * p.cfg.WeightBits
	bits += p.buffer.StorageBits()
	bits += p.cfg.HistBits
	bits += p.cfg.LocalEntries * p.cfg.LocalBits
	bits += p.cfg.K * 16 // adaptive threshold + counter per bit
	return bits
}
