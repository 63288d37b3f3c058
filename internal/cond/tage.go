package cond

import (
	"blbp/internal/hashing"
	"blbp/internal/history"
	"blbp/internal/threshold"
	"blbp/internal/trace"
)

// TAGEConfig parameterizes a conditional TAGE predictor (Seznec & Michaud).
// Together with ITTAGE it forms COTTAGE, the combined design the paper's
// related work describes; the cottage experiment pairs the two.
type TAGEConfig struct {
	// BaseEntries sizes the bimodal base predictor.
	BaseEntries int
	// Tables is the number of tagged tables.
	Tables int
	// TableEntries is the per-table entry count.
	TableEntries int
	// MinHist and MaxHist bound the geometric history lengths.
	MinHist int
	MaxHist int
	// TagBitsMin is the shortest table's tag width (grows 1 bit every
	// other table).
	TagBitsMin int
	// HistBits is the global history capacity.
	HistBits int
	// ResetPeriod is the interval between gradual usefulness resets.
	ResetPeriod int
}

// DefaultTAGEConfig returns a ~64 KB-class conditional TAGE.
func DefaultTAGEConfig() TAGEConfig {
	return TAGEConfig{
		BaseEntries:  16384,
		Tables:       8,
		TableEntries: 2048,
		MinHist:      4,
		MaxHist:      630,
		TagBitsMin:   9,
		HistBits:     631,
		ResetPeriod:  256 * 1024,
	}
}

type tageEntry struct {
	tag   uint64
	ctr   int8 // signed 3-bit counter: -4..3, >= 0 predicts taken
	u     uint8
	valid bool
}

// TAGE is the conditional direction predictor.
type TAGE struct {
	cfg      TAGEConfig
	tagBits  []int
	tables   [][]tageEntry
	base     []counter2
	ghist    *history.FoldedSet
	idxFolds []history.FoldID // per-table index fold over its history length
	tagFolds []history.FoldID // per-table tag fold over the same interval
	phist    uint64

	useAltOnNA int8

	// Prediction-time state for Train.
	lastPC       uint64
	lastOK       bool
	provider     int
	providerIdx  int
	altPred      bool
	altFromTable bool
	lastPred     bool
	usedProv     bool

	updates int64
	rng     uint64
}

// NewTAGE constructs a conditional TAGE predictor; it panics on invalid
// configuration.
func NewTAGE(cfg TAGEConfig) *TAGE {
	if cfg.BaseEntries <= 0 || cfg.Tables <= 0 || cfg.TableEntries <= 0 {
		panic("cond: TAGE geometry must be positive")
	}
	if cfg.MinHist <= 0 || cfg.MaxHist <= cfg.MinHist || cfg.MaxHist >= cfg.HistBits {
		panic("cond: TAGE history lengths inconsistent")
	}
	if cfg.ResetPeriod <= 0 {
		panic("cond: TAGE ResetPeriod must be positive")
	}
	lens := history.GeometricLengths(cfg.MinHist, cfg.MaxHist, cfg.Tables)
	tables := make([][]tageEntry, cfg.Tables)
	tagBits := make([]int, cfg.Tables)
	ghist := history.NewFoldedSet(cfg.HistBits)
	idxFolds := make([]history.FoldID, cfg.Tables)
	tagFolds := make([]history.FoldID, cfg.Tables)
	for i := range tables {
		tables[i] = make([]tageEntry, cfg.TableEntries)
		tb := cfg.TagBitsMin + i/2
		if tb > 15 {
			tb = 15
		}
		tagBits[i] = tb
		idxFolds[i] = ghist.Register(0, lens[i]-1, 22)
		tagFolds[i] = ghist.Register(0, lens[i]-1, 17)
	}
	t := &TAGE{
		cfg:      cfg,
		tagBits:  tagBits,
		tables:   tables,
		base:     make([]counter2, cfg.BaseEntries),
		ghist:    ghist,
		idxFolds: idxFolds,
		tagFolds: tagFolds,
	}
	t.Reset()
	return t
}

// Reset restores the freshly constructed state: empty tagged tables, weakly
// not-taken base counters, empty histories, the initial allocation seed, a
// zero update count, and no pending prediction (the rest of the prediction
// cache is rebuilt by the next Predict). Run plans recycle a pass's
// predictors through it between workloads.
func (t *TAGE) Reset() {
	for _, tbl := range t.tables {
		for i := range tbl {
			tbl[i] = tageEntry{}
		}
	}
	for i := range t.base {
		t.base[i] = 1
	}
	t.ghist.Reset()
	t.phist = 0
	t.useAltOnNA = 0
	t.lastPC, t.lastOK = 0, false
	t.updates = 0
	t.rng = 0x853c49e6748fea9b
}

// Name implements Predictor.
func (t *TAGE) Name() string { return "tage" }

func (t *TAGE) nextRand() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

func (t *TAGE) tableIndex(i int, pc uint64) int {
	fold := t.ghist.Value(t.idxFolds[i])
	h := hashing.Combine(hashing.Mix64(pc)+uint64(i)<<48, fold^t.phist)
	return hashing.Index(h, t.cfg.TableEntries)
}

func (t *TAGE) tableTag(i int, pc uint64) uint64 {
	fold := t.ghist.Value(t.tagFolds[i])
	h := hashing.Combine(hashing.Mix64(pc)*3+uint64(i)<<40, fold*7+t.phist)
	return hashing.Tag(h, t.tagBits[i])
}

func (t *TAGE) baseIndex(pc uint64) int {
	return hashing.Index(hashing.Mix64(pc), t.cfg.BaseEntries)
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc uint64) bool {
	t.lastPC, t.lastOK = pc, true
	t.provider = -1
	t.altFromTable = false
	altSet := false
	for i := t.cfg.Tables - 1; i >= 0; i-- {
		idx := t.tableIndex(i, pc)
		e := &t.tables[i][idx]
		if !e.valid || e.tag != t.tableTag(i, pc) {
			continue
		}
		if t.provider == -1 {
			t.provider, t.providerIdx = i, idx
		} else {
			t.altPred = e.ctr >= 0
			t.altFromTable, altSet = true, true
			break
		}
	}
	if !altSet {
		t.altPred = t.base[t.baseIndex(pc)].taken()
	}
	if t.provider == -1 {
		t.lastPred = t.altPred
		t.usedProv = false
		return t.lastPred
	}
	e := &t.tables[t.provider][t.providerIdx]
	weak := e.ctr == 0 || e.ctr == -1
	if weak && t.useAltOnNA >= 0 {
		t.lastPred = t.altPred
		t.usedProv = false
	} else {
		t.lastPred = e.ctr >= 0
		t.usedProv = true
	}
	return t.lastPred
}

// Train implements Predictor.
func (t *TAGE) Train(pc uint64, taken bool) {
	if !t.lastOK || t.lastPC != pc {
		t.Predict(pc)
	}
	t.lastOK = false
	t.updates++
	mispredicted := t.lastPred != taken

	if t.provider >= 0 {
		e := &t.tables[t.provider][t.providerIdx]
		provPred := e.ctr >= 0
		weak := e.ctr == 0 || e.ctr == -1
		if weak && t.altPred != provPred {
			switch {
			case t.altPred == taken:
				t.useAltOnNA = threshold.SatInc8(t.useAltOnNA, 7)
			case provPred == taken:
				t.useAltOnNA = threshold.SatDec8(t.useAltOnNA, -8)
			}
		}
		if taken {
			e.ctr = threshold.SatInc8(e.ctr, 3)
		} else {
			e.ctr = threshold.SatDec8(e.ctr, -4)
		}
		if provPred != t.altPred {
			if provPred == taken {
				e.u = threshold.SatIncU8(e.u, 3)
			} else {
				e.u = threshold.SatDecU8(e.u, 0)
			}
		}
		// Base trains when it served as alt or when the provider is new.
		if !t.usedProv || !t.altFromTable {
			bi := t.baseIndex(pc)
			t.base[bi] = t.base[bi].update(taken)
		}
	} else {
		bi := t.baseIndex(pc)
		t.base[bi] = t.base[bi].update(taken)
	}

	if mispredicted && t.provider < t.cfg.Tables-1 {
		start := t.provider + 1
		if avail := t.cfg.Tables - start; avail > 1 && t.nextRand()&3 == 0 {
			start++
		}
		for i := start; i < t.cfg.Tables; i++ {
			idx := t.tableIndex(i, pc)
			e := &t.tables[i][idx]
			if !e.valid || e.u == 0 {
				ctr := int8(0)
				if !taken {
					ctr = -1
				}
				t.tables[i][idx] = tageEntry{tag: t.tableTag(i, pc), ctr: ctr, valid: true}
				break
			}
		}
	}

	if t.updates%int64(t.cfg.ResetPeriod) == 0 {
		var mask uint8 = 0b01
		if (t.updates/int64(t.cfg.ResetPeriod))&1 == 1 {
			mask = 0b10
		}
		for _, tbl := range t.tables {
			for j := range tbl {
				tbl[j].u &^= mask
			}
		}
	}
}

// UpdateHistory implements Predictor.
func (t *TAGE) UpdateHistory(pc uint64, taken bool) {
	t.ghist.Shift(taken)
	t.phist = (t.phist<<1 ^ pc>>2) & 0xFFFF
	t.lastOK = false
}

// OnOther implements Predictor.
func (t *TAGE) OnOther(pc, target uint64, bt trace.BranchType) {
	t.phist = (t.phist<<1 ^ pc>>2) & 0xFFFF
	if bt.IsIndirect() {
		t.ghist.ShiftBits(hashing.Mix64(target), 2)
	}
	t.lastOK = false
}

// StorageBits implements Predictor.
func (t *TAGE) StorageBits() int {
	bits := 2 * t.cfg.BaseEntries
	for i := range t.tables {
		bits += t.cfg.TableEntries * (1 + t.tagBits[i] + 3 + 2)
	}
	bits += t.cfg.HistBits + 16 + 4
	return bits
}
