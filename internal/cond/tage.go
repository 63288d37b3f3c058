package cond

import (
	"fmt"

	"blbp/internal/history"
	"blbp/internal/threshold"
	"blbp/internal/trace"
)

// TAGEConfig parameterizes a conditional TAGE predictor (Seznec & Michaud).
// Together with ITTAGE it forms COTTAGE, the combined design the paper's
// related work describes; the cottage experiment pairs the two. Its fields
// are history.TaggedGeometry's, in the same order, so it converts to one.
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

// Validate checks the configuration with the geometry checks TAGE shares
// with ITTAGE (history.TaggedGeometry.Validate), each error naming its
// field. predictor.MergeJSON runs it on every run plan's cond_config.
func (c TAGEConfig) Validate() error {
	if err := history.TaggedGeometry(c).Validate(); err != nil {
		return fmt.Errorf("cond: TAGE %v", err)
	}
	return nil
}

type tageEntry struct {
	tag   uint64
	ctr   int8 // signed 3-bit counter: -4..3, >= 0 predicts taken
	u     uint8
	valid bool
}

// TAGE is the conditional direction predictor.
type TAGE struct {
	cfg    TAGEConfig
	hist   history.Tagged
	tables [][]tageEntry
	base   []counter2

	// Prediction-time state for Train.
	lastPC       uint64
	lastOK       bool
	provider     int
	providerIdx  int
	altPred      bool
	altFromTable bool
	lastPred     bool
	usedProv     bool
}

// NewTAGE constructs a conditional TAGE predictor; it panics on a
// configuration Validate rejects.
func NewTAGE(cfg TAGEConfig) *TAGE {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	tables := make([][]tageEntry, cfg.Tables)
	for i := range tables {
		tables[i] = make([]tageEntry, cfg.TableEntries)
	}
	t := &TAGE{
		cfg:    cfg,
		hist:   history.NewTagged(history.TaggedGeometry(cfg), 0x853c49e6748fea9b),
		tables: tables,
		base:   make([]counter2, cfg.BaseEntries),
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
	t.hist.Reset()
	t.lastPC, t.lastOK = 0, false
}

// Name implements Predictor.
func (t *TAGE) Name() string { return "tage" }

// Predict implements Predictor.
func (t *TAGE) Predict(pc uint64) bool {
	t.lastPC, t.lastOK = pc, true
	t.provider = -1
	t.altFromTable = false
	altSet := false
	for i := t.cfg.Tables - 1; i >= 0; i-- {
		idx := t.hist.Index(i, pc)
		e := &t.tables[i][idx]
		if !e.valid || e.tag != t.hist.Tag(i, pc) {
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
		t.altPred = t.base[t.hist.BaseIndex(pc)].taken()
	}
	if t.provider == -1 {
		t.lastPred = t.altPred
		t.usedProv = false
		return t.lastPred
	}
	e := &t.tables[t.provider][t.providerIdx]
	weak := e.ctr == 0 || e.ctr == -1
	if weak && t.hist.UseAltOnNA >= 0 {
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
	mispredicted := t.lastPred != taken

	if t.provider >= 0 {
		e := &t.tables[t.provider][t.providerIdx]
		provPred := e.ctr >= 0
		weak := e.ctr == 0 || e.ctr == -1
		if weak && t.altPred != provPred {
			switch {
			case t.altPred == taken:
				t.hist.UseAltOnNA = threshold.SatInc8(t.hist.UseAltOnNA, history.UseAltMax)
			case provPred == taken:
				t.hist.UseAltOnNA = threshold.SatDec8(t.hist.UseAltOnNA, history.UseAltMin)
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
			bi := t.hist.BaseIndex(pc)
			t.base[bi] = t.base[bi].update(taken)
		}
	} else {
		bi := t.hist.BaseIndex(pc)
		t.base[bi] = t.base[bi].update(taken)
	}

	if mispredicted && t.provider < t.cfg.Tables-1 {
		for i := t.hist.AllocStart(t.provider); i < t.cfg.Tables; i++ {
			idx := t.hist.Index(i, pc)
			e := &t.tables[i][idx]
			if !e.valid || e.u == 0 {
				ctr := int8(0)
				if !taken {
					ctr = -1
				}
				t.tables[i][idx] = tageEntry{tag: t.hist.Tag(i, pc), ctr: ctr, valid: true}
				break
			}
		}
	}

	if mask := t.hist.Tick(); mask != 0 {
		for _, tbl := range t.tables {
			for j := range tbl {
				tbl[j].u &^= mask
			}
		}
	}
}

// UpdateHistory implements Predictor.
func (t *TAGE) UpdateHistory(pc uint64, taken bool) {
	t.hist.Shift(pc, taken)
	t.lastOK = false
}

// OnOther implements Predictor.
func (t *TAGE) OnOther(pc, target uint64, bt trace.BranchType) {
	if bt.IsIndirect() {
		t.hist.ShiftIndirect(pc, target)
	} else {
		t.hist.ShiftPath(pc)
	}
	t.lastOK = false
}

// StorageBits implements Predictor.
func (t *TAGE) StorageBits() int {
	return 2*t.cfg.BaseEntries + t.cfg.Tables*t.cfg.TableEntries*(1+3+2) + t.hist.StorageBits()
}
