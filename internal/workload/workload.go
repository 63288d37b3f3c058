// Package workload synthesizes branch traces that stand in for the paper's
// proprietary inputs (SPEC simpoints and Samsung CBP-5 traces; see DESIGN.md
// §3 for the substitution rationale). Each generator models a program-shaped
// control-flow process — interpreter dispatch, virtual dispatch, switch
// parsing, callback tables — parameterized by seed, so every trace is
// deterministic and the full 88-workload suite mirrors Table 1's categories.
//
// Workloads are declared in internal/wspec and compiled down to the Spec
// this package defines; there is no second construction path. The public
// constructors (blbp.NewInterpreterWorkload, ...) compile a one-leaf spec
// through wspec.Leaf and panic on anything wspec's Validate rejects.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"blbp/internal/trace"
)

// instructionSize matches the engine's convention: return address is call
// PC + 4.
const instructionSize = 4

// emitter builds a columnar trace while tracking straight-line instruction
// counts and a call stack so call/return pairs stay balanced.
type emitter struct {
	cols    *trace.Columns
	rng     *rand.Rand
	pending int64 // straight-line instructions since the last branch
	instr   int64
	limit   int64
	stack   []uint64
}

// idle holds the emitters no build is using. An emitter builds into a
// scratch trace that Build detaches an exactly sized copy of
// (trace.Columns.Detach) before the emitter comes back here, so each
// trace's arrays are allocated once, at their final size, and an emitter's
// own arrays grow only for a trace larger than any it has built. It is a
// free list rather than a sync.Pool: a pool drops its objects at every
// other collection and misses whenever the building goroutine has moved
// to another processor, and each miss regrows a scratch as large as the
// trace (building the suite allocated 1.23–1.27× its traces' bytes in
// three runs with a pool, 1.17× with this list). It holds at most one
// emitter per build ever run at once.
var idle struct {
	sync.Mutex
	emitters []*emitter
}

// newEmitter returns an idle emitter, or a new one, reset for a trace of
// the given name and instruction budget, with its generator stream seeded.
func newEmitter(name string, limit, seed int64) *emitter {
	idle.Lock()
	defer idle.Unlock()
	if n := len(idle.emitters); n > 0 {
		e := idle.emitters[n-1]
		idle.emitters = idle.emitters[:n-1]
		e.cols.Name = name
		e.rng.Seed(seed)
		e.pending, e.instr, e.limit, e.stack = 0, 0, limit, e.stack[:0]
		return e
	}
	return &emitter{cols: trace.NewColumns(name, 0), rng: rand.New(rand.NewSource(seed)), limit: limit}
}

// finish returns the built trace and makes the emitter idle.
func (e *emitter) finish() *trace.Columns {
	cols := e.cols.Detach()
	idle.Lock()
	defer idle.Unlock()
	idle.emitters = append(idle.emitters, e)
	return cols
}

// done reports whether the instruction budget is exhausted.
func (e *emitter) done() bool { return e.instr >= e.limit }

// work accounts n straight-line (non-branch) instructions.
func (e *emitter) work(n int) {
	if n > 0 {
		e.pending += int64(n)
	}
}

func (e *emitter) emit(rec trace.Record) {
	const maxPending = 1 << 20
	for e.pending > maxPending {
		// Extremely long straight-line runs are split across records via
		// zero-cost filler conditional branches; in practice generators
		// never get here, but the guard keeps InstrBefore in uint32 range.
		e.pending -= maxPending
		e.instr += maxPending + 1
		e.cols.Append(trace.Record{PC: rec.PC - 8, Target: rec.PC - 4, InstrBefore: maxPending, Type: trace.CondDirect})
	}
	rec.InstrBefore = uint32(e.pending)
	e.instr += e.pending + 1
	e.pending = 0
	e.cols.Append(rec)
}

// cond emits a conditional branch.
func (e *emitter) cond(pc uint64, taken bool) {
	target := pc + instructionSize
	if taken {
		target = pc + 0x20
	}
	e.emit(trace.Record{PC: pc, Target: target, Type: trace.CondDirect, Taken: taken})
}

// jump emits an unconditional direct jump.
func (e *emitter) jump(pc, target uint64) {
	e.emit(trace.Record{PC: pc, Target: target, Type: trace.UncondDirect, Taken: true})
}

// call emits a direct call and pushes the return address.
func (e *emitter) call(pc, fn uint64) {
	e.emit(trace.Record{PC: pc, Target: fn, Type: trace.DirectCall, Taken: true})
	e.stack = append(e.stack, pc+instructionSize)
}

// icall emits an indirect call and pushes the return address.
func (e *emitter) icall(pc, fn uint64) {
	e.emit(trace.Record{PC: pc, Target: fn, Type: trace.IndirectCall, Taken: true})
	e.stack = append(e.stack, pc+instructionSize)
}

// ijump emits an indirect jump.
func (e *emitter) ijump(pc, target uint64) {
	e.emit(trace.Record{PC: pc, Target: target, Type: trace.IndirectJump, Taken: true})
}

// ret emits a return to the matching call site. It panics on an unbalanced
// stack, which is a generator bug.
func (e *emitter) ret(pc uint64) {
	if len(e.stack) == 0 {
		panic("workload: return without matching call")
	}
	target := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	e.emit(trace.Record{PC: pc, Target: target, Type: trace.Return, Taken: true})
}

// Model is one program-shaped control-flow process; step emits one logical
// iteration (a dispatch, an object visit, a parsed token, ...). The
// interface is sealed — implementations live in this package and are
// obtained from the parameter-struct factories (InterpreterParams.New, ...)
// and the compositors (NewMixed, NewPhases, WithRng).
type Model interface {
	step(e *emitter, rng *rand.Rand)
}

// innerLoop emits a counted inner loop: trips taken back-edges plus the
// final not-taken exit, with workPer straight-line instructions per
// iteration. These predictable conditionals provide the conditional-branch
// bulk real traces have (the paper's Fig. 1 mix) and space indirect
// branches apart.
func innerLoop(e *emitter, pc uint64, trips, workPer int) {
	for t := 0; t < trips; t++ {
		e.work(workPer)
		e.cond(pc, true)
	}
	e.work(workPer)
	e.cond(pc, false)
}

// Categories mirroring the paper's Table 1 benchmark sources.
const (
	CatSPEC2000    = "SPEC CPU2000"
	CatSPEC2006    = "SPEC CPU2006"
	CatSPEC2017    = "SPEC CPU2017"
	CatMobileShort = "CBP-5 SHORT-MOBILE"
	CatMobileLong  = "CBP-5 LONG-MOBILE"
	CatServerShort = "CBP-5 SHORT-SERVER"
	CatServerLong  = "CBP-5 LONG-SERVER"
)

// Spec names one fully-parameterized workload of the suite.
type Spec struct {
	// Name is the unique workload name (e.g. "mobile-s-07").
	Name string
	// Category mirrors Table 1's benchmark sources.
	Category string
	// Seed drives all generator randomness.
	Seed int64
	// Instructions is the trace length.
	Instructions int64
	// Fingerprint is an FNV-64a hash of the canonicalized generator
	// structure and parameters (see CanonParams / FingerprintCanon). Two
	// specs with equal Name, Seed and Instructions but different generator
	// parameters — possible once specs are user-authored data — carry
	// different fingerprints, so caches never serve one the other's trace.
	Fingerprint uint64
	// build constructs the workload's models.
	build func(rng *rand.Rand) Model
	// buildCols, when set, short-circuits Build entirely (replay
	// specs that decode a recorded trace instead of running a generator).
	buildCols func() *trace.Columns
}

// NewSpec constructs a generator-backed Spec. It is the bridge the
// declarative spec layer (internal/wspec) compiles through.
func NewSpec(name, category string, seed, instructions int64, fingerprint uint64, build func(rng *rand.Rand) Model) Spec {
	return Spec{
		Name: name, Category: category, Seed: seed, Instructions: instructions,
		Fingerprint: fingerprint, build: build,
	}
}

// NewReplaySpec constructs a Spec whose trace comes from load (typically a
// recorded spill file) instead of a generator. Instructions and fingerprint
// describe the recorded trace; load runs once per Build call.
func NewReplaySpec(name, category string, seed, instructions int64, fingerprint uint64, load func() *trace.Columns) Spec {
	return Spec{
		Name: name, Category: category, Seed: seed, Instructions: instructions,
		Fingerprint: fingerprint, buildCols: load,
	}
}

// Identity is a spec's comparable cache identity: name, seed (which carries
// any suite salt), instruction budget, and the generator-parameter
// fingerprint. Equal identities build byte-identical traces; the trace
// cache keys on it.
type Identity struct {
	Name         string
	Seed         int64
	Instructions int64
	Fingerprint  uint64
}

// Identity returns the spec's cache identity.
func (s Spec) Identity() Identity {
	return Identity{Name: s.Name, Seed: s.Seed, Instructions: s.Instructions, Fingerprint: s.Fingerprint}
}

// SpillHeader is the SPL3 file header that declares id: the header the
// trace cache spills a trace under and tracegen writes a trace file with.
func (id Identity) SpillHeader() trace.SpillHeader {
	return trace.SpillHeader{Name: id.Name, Seed: id.Seed, Instructions: id.Instructions, Fingerprint: id.Fingerprint}
}

// Build synthesizes the trace for the spec.
func (s Spec) Build() *trace.Columns {
	if s.buildCols != nil {
		return s.buildCols()
	}
	if s.build == nil {
		panic(fmt.Sprintf("workload: spec %q has no generator", s.Name))
	}
	e := newEmitter(s.Name, s.Instructions, s.Seed)
	m := s.build(e.rng)
	for !e.done() {
		m.step(e, e.rng)
	}
	// Unwind any live call stack so traces end balanced. The return PCs
	// live in a bank reserved for the unwind (generator banks are bounded
	// by MaxBank), so they can never alias a generator's call sites — the
	// old fixed 0x3FF000+i*4 sequence could collide with bank-0 addresses
	// once an unwound stack ran deep enough.
	for i := len(e.stack); i > 0; i-- {
		e.ret(funcAddr(unwindBank, 0) + uint64(i)*instructionSize)
	}
	return e.finish()
}

// MaxBank bounds the bank index a generator model may occupy (exclusive).
// Bank unwindBank — the first index past the generator range — is reserved
// for Build's end-of-trace stack unwind.
const (
	MaxBank    = 64
	unwindBank = MaxBank
)

// funcAddr returns the synthetic address of function index i in bank b.
// Banks keep the address spaces of independent models disjoint. The 0x48
// stride makes low-order target bits (including bit 3, which BLBP's local
// histories record) vary across functions, as real code layouts do — a
// uniform power-of-two stride would freeze those bits artificially.
func funcAddr(bank, i int) uint64 {
	return 0x40_0000 + uint64(bank)<<24 + uint64(i)*0x48
}

// zipfTable builds a cumulative distribution over n items with a Zipf-like
// skew (item 0 hottest); draw with drawCDF.
func zipfTable(n int, skew float64) []float64 {
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		w := 1.0
		for s := skew; s >= 1; s-- {
			w /= float64(i + 1)
		}
		if frac := skew - float64(int(skew)); frac > 0 {
			// Linear interpolation of the fractional exponent keeps the
			// table cheap without math.Pow in the loop.
			w *= 1 - frac + frac/float64(i+1)
		}
		weights[i] = w
		total += w
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cdf[i] = acc
	}
	cdf[n-1] = 1
	return cdf
}

// drawCDF draws an index from a cumulative distribution: the first i with
// x <= cdf[i]. The binary search returns exactly the index the former
// linear scan did (both find the first entry >= x), so traces are
// unchanged; event-loop models draw per step, so on wide tables (e.g. a
// 96-handler callbacks model) the O(log n) search is the difference
// between scanning half the table per event and three comparisons.
func drawCDF(cdf []float64, rng *rand.Rand) int {
	x := rng.Float64()
	if i := sort.SearchFloat64s(cdf, x); i < len(cdf) {
		return i
	}
	return len(cdf) - 1
}
