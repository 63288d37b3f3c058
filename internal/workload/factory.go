package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"blbp/internal/hashing"
)

// This file is the constructor surface the declarative spec layer
// (internal/wspec) compiles through: per-family Model factories on the
// exported parameter structs, the compositors that combine them, and the
// canonical fingerprint helpers a compiled spec's identity hashes.

// SeedFor derives a workload's default seed from its name (stable across
// processes; suite salts append "#<salt>" before hashing).
func SeedFor(name string) int64 {
	var h uint64 = 0x243f6a8885a308d3
	for _, b := range []byte(name) {
		h = hashing.Combine(h, uint64(b))
	}
	return int64(h >> 1)
}

// CanonParams canonicalizes a leaf generator: the kind name plus the JSON
// encoding of its parameter struct (struct field order, so the encoding is
// deterministic). Composite canon strings (mixes, phase schedules) are
// built over these by internal/wspec.
func CanonParams(kind string, params any) string {
	b, err := json.Marshal(params)
	if err != nil {
		panic(fmt.Sprintf("workload: canonicalizing %s params: %v", kind, err))
	}
	return kind + "|" + string(b)
}

// FingerprintCanon hashes a canonicalized generator description to the
// spec fingerprint carried by Identity and spill headers.
func FingerprintCanon(canon string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(canon); i++ {
		h = (h ^ uint64(canon[i])) * prime64
	}
	return h
}

// New constructs the interpreter model for the parameters.
func (p InterpreterParams) New(rng *rand.Rand) Model { return newInterpreter(p, rng) }

// New constructs the virtual-dispatch model for the parameters.
func (p VDispatchParams) New(rng *rand.Rand) Model { return newVDispatch(p, rng) }

// New constructs the switch/parser model for the parameters.
func (p SwitcherParams) New(rng *rand.Rand) Model { return newSwitcher(p, rng) }

// New constructs the event-loop model for the parameters.
func (p CallbacksParams) New(rng *rand.Rand) Model { return newCallbacks(p, rng) }

// New constructs the monomorphic-calls model for the parameters.
func (p MonoParams) New(rng *rand.Rand) Model { return newMono(p, rng) }

// New constructs the recursion-heavy model for the parameters.
func (p RecursiveParams) New(rng *rand.Rand) Model { return newRecursive(p, rng) }

// NewMixed composes models with integer interleave weights: model i runs
// weights[i] steps per round-robin round, or is chosen with probability
// proportional to its weight when random is true. Panics on empty or
// mismatched inputs and non-positive weights (spec validation catches these
// before compiled specs get here).
func NewMixed(models []Model, weights []int, random bool) Model {
	return newMixed(models, weights, random)
}

// Phase is one segment of a phase schedule: Model runs until the trace's
// instruction count reaches Until. Until 0 means "to the end of the trace"
// and is only meaningful on the last phase.
type Phase struct {
	Until int64
	Model Model
}

// NewPhases composes models into a piecewise schedule over the instruction
// budget: the first phase whose boundary has not been reached steps.
// Boundaries are absolute instruction counts and must be increasing; a
// phase whose models overrun their boundary slightly (a step emits several
// records) simply hands over at the next step.
func NewPhases(phases []Phase) Model {
	if len(phases) == 0 {
		panic("workload: phase schedule needs at least one phase")
	}
	return &phasesModel{phases: phases}
}

type phasesModel struct {
	phases []Phase
	cur    int
}

func (m *phasesModel) step(e *emitter, rng *rand.Rand) {
	for m.cur < len(m.phases)-1 && m.phases[m.cur].Until > 0 && e.instr >= m.phases[m.cur].Until {
		m.cur++
	}
	m.phases[m.cur].Model.step(e, rng)
}

// WithRng binds m to its own random stream: steps use rng instead of the
// shared build rng, so a multi-client mix can give each client an
// independent, per-client-seeded stream whose draws are unaffected by how
// the clients interleave.
func WithRng(m Model, rng *rand.Rand) Model {
	return &seededModel{m: m, rng: rng}
}

type seededModel struct {
	m   Model
	rng *rand.Rand
}

func (s *seededModel) step(e *emitter, _ *rand.Rand) { s.m.step(e, s.rng) }
