package cond

import (
	"fmt"

	"blbp/internal/hashing"
	"blbp/internal/history"
	"blbp/internal/threshold"
	"blbp/internal/trace"
)

// FeatureKind enumerates the history features a hashed-perceptron table can
// be indexed by (a small subset of the 37-feature multiperspective predictor
// the paper uses under VPC; see DESIGN.md for the substitution note).
type FeatureKind int

const (
	// FeatureBias indexes by PC only.
	FeatureBias FeatureKind = iota
	// FeatureGlobal indexes by PC hashed with a global-history interval.
	FeatureGlobal
	// FeaturePath indexes by PC hashed with path history.
	FeaturePath
	// FeatureLocal indexes by PC hashed with the branch's local history.
	FeatureLocal
)

// Feature describes one perceptron table's index function.
type Feature struct {
	Kind FeatureKind
	// Lo, Hi select the inclusive global-history interval (FeatureGlobal).
	Lo, Hi int
	// Depth is the path depth (FeaturePath).
	Depth int
}

// HPConfig parameterizes a hashed perceptron predictor.
type HPConfig struct {
	// TableEntries is the number of weight rows per feature table.
	TableEntries int
	// WeightBits is the width of each signed weight (6 in Tarjan & Skadron).
	WeightBits int
	// Features lists the tables.
	Features []Feature
	// HistBits is the global history capacity.
	HistBits int
	// LocalEntries × LocalBits sizes the local history table.
	LocalEntries int
	LocalBits    int
	// PathDepth is the path history depth.
	PathDepth int
	// ThetaInit seeds the adaptive threshold.
	ThetaInit int
}

// DefaultHPConfig returns a ~64 KB hashed perceptron comparable in budget to
// the multiperspective predictor the paper pairs with VPC.
func DefaultHPConfig() HPConfig {
	return HPConfig{
		TableEntries: 4096,
		WeightBits:   6,
		Features: []Feature{
			{Kind: FeatureBias},
			{Kind: FeatureLocal},
			{Kind: FeaturePath, Depth: 8},
			{Kind: FeaturePath, Depth: 16},
			{Kind: FeatureGlobal, Lo: 0, Hi: 7},
			{Kind: FeatureGlobal, Lo: 0, Hi: 15},
			{Kind: FeatureGlobal, Lo: 8, Hi: 23},
			{Kind: FeatureGlobal, Lo: 16, Hi: 39},
			{Kind: FeatureGlobal, Lo: 24, Hi: 63},
			{Kind: FeatureGlobal, Lo: 40, Hi: 95},
			{Kind: FeatureGlobal, Lo: 64, Hi: 150},
			{Kind: FeatureGlobal, Lo: 96, Hi: 220},
			{Kind: FeatureGlobal, Lo: 150, Hi: 320},
			{Kind: FeatureGlobal, Lo: 220, Hi: 470},
			{Kind: FeatureGlobal, Lo: 320, Hi: 630},
			{Kind: FeatureGlobal, Lo: 470, Hi: 630},
		},
		HistBits:     631,
		LocalEntries: 1024,
		LocalBits:    11,
		PathDepth:    16,
		ThetaInit:    24,
	}
}

// Validate checks the configuration; predictor.MergeJSON runs it on every
// run plan's cond_config, and each error names its field.
func (c HPConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"TableEntries", c.TableEntries}, {"HistBits", c.HistBits},
		{"LocalEntries", c.LocalEntries}, {"PathDepth", c.PathDepth},
	} {
		if f.v <= 0 {
			return fmt.Errorf("cond: %s=%d must be positive", f.name, f.v)
		}
	}
	if c.WeightBits < 2 || c.WeightBits > 16 {
		return fmt.Errorf("cond: WeightBits=%d outside [2,16]", c.WeightBits)
	}
	if c.LocalBits < 1 || c.LocalBits > 63 {
		return fmt.Errorf("cond: LocalBits=%d outside [1,63]", c.LocalBits)
	}
	if c.ThetaInit < 1 || c.ThetaInit > 1024 {
		return fmt.Errorf("cond: ThetaInit=%d outside [1,1024]", c.ThetaInit)
	}
	if len(c.Features) == 0 {
		return fmt.Errorf("cond: no Features")
	}
	for i, f := range c.Features {
		switch f.Kind {
		case FeatureGlobal:
			if f.Lo < 0 || f.Hi < f.Lo || f.Hi >= c.HistBits {
				return fmt.Errorf("cond: feature %d interval [%d,%d] outside history of %d bits", i, f.Lo, f.Hi, c.HistBits)
			}
		case FeaturePath:
			if f.Depth <= 0 || f.Depth > c.PathDepth {
				return fmt.Errorf("cond: feature %d path depth %d outside [1,%d]", i, f.Depth, c.PathDepth)
			}
		case FeatureBias, FeatureLocal:
		default:
			return fmt.Errorf("cond: feature %d has unknown kind %d", i, f.Kind)
		}
	}
	return nil
}

// HashedPerceptron is a Tarjan & Skadron-style hashed perceptron predictor
// over a configurable feature set. It also exposes the speculation hooks
// (SpecShift, HistSnapshotInto/HistRestore) that the VPC predictor needs to
// walk virtual PCs.
type HashedPerceptron struct {
	cfg      HPConfig
	weights  [][]int8 // one table per feature
	ghist    *history.FoldedSet
	featFold []history.FoldID // registered fold per FeatureGlobal feature (else -1)
	local    *history.Local
	path     *history.Path
	theta    *threshold.Adaptive
	wMin     int8
	wMax     int8

	scratch []int // per-feature indices, reused between Predict and Train
	lastPC  uint64
	lastOK  bool
}

// NewHashedPerceptron constructs a predictor; it panics on an invalid
// configuration (configurations are build-time constants in this codebase).
func NewHashedPerceptron(cfg HPConfig) *HashedPerceptron {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	w := make([][]int8, len(cfg.Features))
	for i := range w {
		w[i] = make([]int8, cfg.TableEntries)
	}
	maxW := int8(1<<uint(cfg.WeightBits-1) - 1)
	ghist := history.NewFoldedSet(cfg.HistBits)
	featFold := make([]history.FoldID, len(cfg.Features))
	for i, f := range cfg.Features {
		featFold[i] = -1
		if f.Kind == FeatureGlobal {
			featFold[i] = ghist.Register(f.Lo, f.Hi, 22)
		}
	}
	return &HashedPerceptron{
		cfg:      cfg,
		weights:  w,
		ghist:    ghist,
		featFold: featFold,
		local:    history.NewLocal(cfg.LocalEntries, cfg.LocalBits),
		path:     history.NewPath(cfg.PathDepth),
		theta:    threshold.New(cfg.ThetaInit, 16, 1, 1024),
		wMin:     -maxW - 1,
		wMax:     maxW,
		scratch:  make([]int, len(cfg.Features)),
	}
}

// Reset restores the freshly constructed state: zero weights, empty
// global, local and path histories, the initial threshold, and no pending
// prediction. Run plans recycle a pass's predictors through it between
// workloads.
func (h *HashedPerceptron) Reset() {
	for _, tbl := range h.weights {
		for i := range tbl {
			tbl[i] = 0
		}
	}
	h.ghist.Reset()
	h.local.Reset()
	h.path.Reset()
	h.theta.Reset(h.cfg.ThetaInit)
	h.lastPC, h.lastOK = 0, false
}

// Name implements Predictor.
func (h *HashedPerceptron) Name() string { return "hashed-perceptron" }

// featureIndex computes the weight row for feature f at pc.
func (h *HashedPerceptron) featureIndex(fi int, pc uint64) int {
	f := h.cfg.Features[fi]
	pcH := hashing.Mix64(pc + uint64(fi)<<56)
	var mix uint64
	switch f.Kind {
	case FeatureBias:
		mix = pcH
	case FeatureGlobal:
		fold := h.ghist.Value(h.featFold[fi])
		mix = hashing.Combine(pcH, fold)
	case FeaturePath:
		mix = hashing.Combine(pcH, h.path.Hash(f.Depth))
	case FeatureLocal:
		mix = hashing.Combine(pcH, h.local.Get(pc))
	}
	return hashing.Index(mix, h.cfg.TableEntries)
}

// sum computes the perceptron output for pc, filling h.scratch with the
// per-feature row indices used.
func (h *HashedPerceptron) sum(pc uint64) int {
	total := 0
	for fi := range h.cfg.Features {
		idx := h.featureIndex(fi, pc)
		h.scratch[fi] = idx
		total += int(h.weights[fi][idx])
	}
	return total
}

// Predict implements Predictor.
func (h *HashedPerceptron) Predict(pc uint64) bool {
	s := h.sum(pc)
	h.lastPC, h.lastOK = pc, true
	return s >= 0
}

// Train implements Predictor. It must be called with history in the same
// state as the matching Predict (the engine trains before updating
// histories).
func (h *HashedPerceptron) Train(pc uint64, taken bool) {
	var s int
	if h.lastOK && h.lastPC == pc {
		// Reuse the indices captured by Predict; recompute the sum from
		// them (cheap) to apply threshold logic.
		s = 0
		for fi, idx := range h.scratch {
			s += int(h.weights[fi][idx])
		}
	} else {
		s = h.sum(pc)
	}
	predicted := s >= 0
	mispredicted := predicted != taken
	a := s
	if a < 0 {
		a = -a
	}
	lowConfidence := !mispredicted && a < h.theta.Theta()
	h.theta.Observe(mispredicted, lowConfidence)
	if !mispredicted && !lowConfidence {
		return
	}
	for fi, idx := range h.scratch {
		w := h.weights[fi][idx]
		if taken {
			if w < h.wMax {
				h.weights[fi][idx] = w + 1
			}
		} else {
			if w > h.wMin {
				h.weights[fi][idx] = w - 1
			}
		}
	}
	h.lastOK = false
}

// UpdateHistory implements Predictor.
func (h *HashedPerceptron) UpdateHistory(pc uint64, taken bool) {
	h.ghist.Shift(taken)
	h.path.Push(pc)
	h.local.Update(pc, taken)
	h.lastOK = false
}

// OnOther implements Predictor: unconditional transfers contribute path
// information, and indirect branches fold two target bits into global
// history (mirroring ITTAGE-style path/target history).
func (h *HashedPerceptron) OnOther(pc, target uint64, bt trace.BranchType) {
	h.path.Push(pc)
	if bt.IsIndirect() {
		// Hash the target so aligned targets (low bits constant) still
		// contribute distinguishing history bits.
		h.ghist.ShiftBits(hashing.Mix64(target), 2)
	}
	h.lastOK = false
}

// SpecShift speculatively shifts one outcome bit into global history. VPC
// uses it to model the virtual not-taken outcomes between iterations.
func (h *HashedPerceptron) SpecShift(taken bool) {
	h.ghist.Shift(taken)
	h.lastOK = false
}

// HistSnapshotInto captures global-history state (including the
// incrementally maintained folds) into a caller-owned snapshot for later
// rollback, reusing its storage: VPC snapshots once per prediction, so
// steady-state snapshotting does not allocate.
func (h *HashedPerceptron) HistSnapshotInto(dst *history.FoldedSnapshot) {
	h.ghist.SnapshotInto(dst)
}

// HistRestore rolls global history back to a snapshot.
func (h *HashedPerceptron) HistRestore(s *history.FoldedSnapshot) {
	h.ghist.Restore(s)
	h.lastOK = false
}

// Theta exposes the current adaptive threshold (for tests and diagnostics).
func (h *HashedPerceptron) Theta() int { return h.theta.Theta() }

// StorageBits implements Predictor.
func (h *HashedPerceptron) StorageBits() int {
	bits := len(h.cfg.Features) * h.cfg.TableEntries * h.cfg.WeightBits
	bits += h.cfg.HistBits
	bits += h.cfg.LocalEntries * h.cfg.LocalBits
	bits += h.cfg.PathDepth * 16
	return bits
}
