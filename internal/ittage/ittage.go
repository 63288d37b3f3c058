// Package ittage implements Seznec's ITTAGE indirect target predictor (the
// 64-Kbyte configuration from the JWAC-2 championship, which the paper uses
// as its state-of-the-art baseline). ITTAGE keeps a tagless base target
// table plus several partially-tagged tables indexed by geometrically
// increasing global-history lengths; the matching table with the longest
// history provides the prediction, with confidence and usefulness counters
// steering updates and allocation.
package ittage

import (
	"fmt"

	"blbp/internal/history"
	"blbp/internal/region"
	"blbp/internal/threshold"
	"blbp/internal/trace"
)

// Config parameterizes an ITTAGE predictor.
type Config struct {
	// BaseEntries sizes the tagless base table.
	BaseEntries int
	// Tables is the number of tagged tables.
	Tables int
	// TableEntries is the entry count per tagged table.
	TableEntries int
	// MinHist and MaxHist bound the geometric history lengths.
	MinHist int
	MaxHist int
	// TagBitsMin is the tag width of the shortest-history table; width
	// grows by one bit every other table, as in Seznec's submissions.
	TagBitsMin int
	// HistBits is the global history capacity (>= MaxHist).
	HistBits int
	// RegionEntries and OffsetBits size the shared region-compressed
	// target representation.
	RegionEntries int
	OffsetBits    int
	// ResetPeriod is the number of updates between gradual usefulness
	// resets.
	ResetPeriod int
}

// DefaultConfig returns a ~64 KB ITTAGE comparable to the paper's Table 2
// baseline.
func DefaultConfig() Config {
	return Config{
		BaseEntries:   4096,
		Tables:        8,
		TableEntries:  1024,
		MinHist:       4,
		MaxHist:       630,
		TagBitsMin:    9,
		HistBits:      631,
		RegionEntries: 128,
		OffsetBits:    20,
		ResetPeriod:   256 * 1024,
	}
}

// Validate checks configuration consistency: the geometry checks ITTAGE
// shares with TAGE (history.TaggedGeometry.Validate) and the region
// array's size, each error naming its field.
func (c Config) Validate() error {
	if err := c.geometry().Validate(); err != nil {
		return fmt.Errorf("ittage: %v", err)
	}
	if c.RegionEntries <= 0 {
		return fmt.Errorf("ittage: RegionEntries=%d must be positive", c.RegionEntries)
	}
	if c.OffsetBits <= 0 || c.OffsetBits >= 64 {
		return fmt.Errorf("ittage: OffsetBits=%d outside [1,63]", c.OffsetBits)
	}
	return nil
}

// geometry returns the tagged-table shape ITTAGE shares with TAGE.
func (c Config) geometry() history.TaggedGeometry {
	return history.TaggedGeometry{
		BaseEntries:  c.BaseEntries,
		Tables:       c.Tables,
		TableEntries: c.TableEntries,
		MinHist:      c.MinHist,
		MaxHist:      c.MaxHist,
		TagBitsMin:   c.TagBitsMin,
		HistBits:     c.HistBits,
		ResetPeriod:  c.ResetPeriod,
	}
}

type taggedEntry struct {
	tag    uint64
	ref    region.Ref
	offset uint64
	ctr    uint8 // confidence 0..3
	u      uint8 // usefulness 0..3
	valid  bool
}

type baseEntry struct {
	ref    region.Ref
	offset uint64
	hyst   uint8 // 1-bit hysteresis
	valid  bool
}

// ITTAGE is the predictor.
type ITTAGE struct {
	cfg     Config
	hist    history.Tagged
	tables  [][]taggedEntry
	base    []baseEntry
	regions *region.Array

	// Prediction-time state cached for Update.
	lastPC       uint64
	lastOK       bool
	provider     int // table index, -1 = base, -2 = none
	providerIdx  int
	altProvider  int
	altIdx       int
	lastPred     uint64
	lastPredOK   bool
	lastAltPred  uint64
	lastAltOK    bool
	lastUsedProv bool // final prediction came from provider (vs alt)
}

// New constructs an ITTAGE predictor; it panics on invalid configuration.
func New(cfg Config) *ITTAGE {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	tables := make([][]taggedEntry, cfg.Tables)
	for i := range tables {
		tables[i] = make([]taggedEntry, cfg.TableEntries)
	}
	return &ITTAGE{
		cfg:     cfg,
		hist:    history.NewTagged(cfg.geometry(), 0x9e3779b97f4a7c15),
		tables:  tables,
		base:    make([]baseEntry, cfg.BaseEntries),
		regions: region.New(cfg.RegionEntries, cfg.OffsetBits),
	}
}

// Reset restores the freshly constructed state: empty tagged and base
// tables, regions and histories, the initial allocation seed, a zero
// update count, and no pending prediction (the rest of the prediction
// cache is rebuilt by the next Predict). Run plans recycle a pass's
// predictors through it between workloads.
func (p *ITTAGE) Reset() {
	for _, tbl := range p.tables {
		for i := range tbl {
			tbl[i] = taggedEntry{}
		}
	}
	for i := range p.base {
		p.base[i] = baseEntry{}
	}
	p.regions.Reset()
	p.hist.Reset()
	p.lastPC, p.lastOK = 0, false
}

// Name implements predictor.Indirect.
func (p *ITTAGE) Name() string { return "ittage" }

// Predict implements predictor.Indirect.
func (p *ITTAGE) Predict(pc uint64) (uint64, bool) {
	p.lastPC, p.lastOK = pc, true
	p.provider, p.altProvider = -2, -2
	p.lastPredOK, p.lastAltOK = false, false

	// Find the two longest-history tag matches.
	for i := p.cfg.Tables - 1; i >= 0; i-- {
		idx := p.hist.Index(i, pc)
		e := &p.tables[i][idx]
		if !e.valid || e.tag != p.hist.Tag(i, pc) {
			continue
		}
		if _, ok := p.regions.Resolve(e.ref, e.offset); !ok {
			e.valid = false // region evicted under it
			continue
		}
		if p.provider == -2 {
			p.provider, p.providerIdx = i, idx
		} else {
			p.altProvider, p.altIdx = i, idx
			break
		}
	}
	// Alt defaults to the base table when no second tagged match exists.
	if p.altProvider == -2 {
		bi := p.hist.BaseIndex(pc)
		if b := &p.base[bi]; b.valid {
			if tgt, ok := p.regions.Resolve(b.ref, b.offset); ok {
				p.altProvider, p.altIdx = -1, bi
				p.lastAltPred, p.lastAltOK = tgt, true
			} else {
				b.valid = false
			}
		}
	} else {
		e := &p.tables[p.altProvider][p.altIdx]
		if tgt, ok := p.regions.Resolve(e.ref, e.offset); ok {
			p.lastAltPred, p.lastAltOK = tgt, true
		}
	}

	if p.provider == -2 {
		// No tagged match: fall back to base (already captured as alt) or
		// report no prediction.
		bi := p.hist.BaseIndex(pc)
		if b := &p.base[bi]; b.valid {
			if tgt, ok := p.regions.Resolve(b.ref, b.offset); ok {
				p.provider, p.providerIdx = -1, bi
				p.lastPred, p.lastPredOK = tgt, true
				p.lastUsedProv = true
				return tgt, true
			}
			b.valid = false
		}
		p.lastUsedProv = false
		return 0, false
	}

	e := &p.tables[p.provider][p.providerIdx]
	tgt, _ := p.regions.Resolve(e.ref, e.offset)
	p.lastPred, p.lastPredOK = tgt, true
	// Newly allocated entries (weak confidence) may be overridden by the
	// alternate prediction when experience says alt is usually right.
	if e.ctr == 0 && p.hist.UseAltOnNA >= 0 && p.lastAltOK {
		p.lastUsedProv = false
		return p.lastAltPred, true
	}
	p.lastUsedProv = true
	return tgt, true
}

// Update implements predictor.Indirect.
func (p *ITTAGE) Update(pc, actual uint64) {
	if !p.lastOK || p.lastPC != pc {
		p.Predict(pc) // out-of-contract: recompute provider state
	}
	p.lastOK = false

	finalPred, finalOK := p.lastPred, p.lastPredOK
	if !p.lastUsedProv {
		finalPred, finalOK = p.lastAltPred, p.lastAltOK
	}
	mispredicted := !finalOK || finalPred != actual

	// Track whether alt beats a newly-allocated provider.
	if p.provider >= 0 {
		e := &p.tables[p.provider][p.providerIdx]
		if e.ctr == 0 && p.lastAltOK && p.lastPredOK && p.lastAltPred != p.lastPred {
			switch {
			case p.lastAltPred == actual:
				p.hist.UseAltOnNA = threshold.SatInc8(p.hist.UseAltOnNA, history.UseAltMax)
			case p.lastPred == actual:
				p.hist.UseAltOnNA = threshold.SatDec8(p.hist.UseAltOnNA, history.UseAltMin)
			}
		}
	}

	// Provider update.
	switch {
	case p.provider >= 0:
		e := &p.tables[p.provider][p.providerIdx]
		if p.lastPredOK && p.lastPred == actual {
			e.ctr = threshold.SatIncU8(e.ctr, 3)
		} else {
			if e.ctr > 0 {
				e.ctr = threshold.SatDecU8(e.ctr, 0)
			} else {
				ref, off := p.regions.Acquire(actual)
				e.ref, e.offset = ref, off
			}
		}
		// Usefulness: provider differed from alt and was right/wrong.
		if p.lastPredOK && (!p.lastAltOK || p.lastAltPred != p.lastPred) {
			if p.lastPred == actual {
				e.u = threshold.SatIncU8(e.u, 3)
			} else {
				e.u = threshold.SatDecU8(e.u, 0)
			}
		}
	case p.provider == -1:
		b := &p.base[p.providerIdx]
		if p.lastPredOK && p.lastPred == actual {
			b.hyst = 1
		} else if b.hyst > 0 {
			b.hyst = 0
		} else {
			ref, off := p.regions.Acquire(actual)
			b.ref, b.offset = ref, off
			b.valid = true
		}
	}

	// Base fill: keep the base table warm even when a tagged table
	// provides, so altpred has something to offer.
	bi := p.hist.BaseIndex(pc)
	if b := &p.base[bi]; !b.valid {
		ref, off := p.regions.Acquire(actual)
		p.base[bi] = baseEntry{ref: ref, offset: off, hyst: 0, valid: true}
	} else if p.provider != -1 {
		if tgt, ok := p.regions.Resolve(b.ref, b.offset); !ok || tgt != actual {
			if b.hyst > 0 {
				b.hyst = 0
			} else {
				ref, off := p.regions.Acquire(actual)
				b.ref, b.offset = ref, off
			}
		} else {
			b.hyst = 1
		}
	}

	// Allocation on misprediction into a longer-history table.
	if mispredicted && p.provider < p.cfg.Tables-1 {
		p.allocate(pc, actual)
	}

	// Gradual usefulness reset.
	if mask := p.hist.Tick(); mask != 0 {
		for _, tbl := range p.tables {
			for j := range tbl {
				tbl[j].u &^= mask
			}
		}
	}

	// History update: indirect branches fold hashed target bits into
	// global history and the path register.
	p.hist.ShiftIndirect(pc, actual)
}

// allocate installs the actual target in up to one table with history
// longer than the provider's, preferring entries with zero usefulness and
// decaying usefulness when none is available (Seznec's allocation rule).
func (p *ITTAGE) allocate(pc, actual uint64) {
	start := p.hist.AllocStart(p.provider)
	for i := start; i < p.cfg.Tables; i++ {
		idx := p.hist.Index(i, pc)
		e := &p.tables[i][idx]
		if !e.valid || e.u == 0 {
			ref, off := p.regions.Acquire(actual)
			p.tables[i][idx] = taggedEntry{
				tag:    p.hist.Tag(i, pc),
				ref:    ref,
				offset: off,
				ctr:    0,
				u:      0,
				valid:  true,
			}
			return
		}
	}
	// Nothing allocatable: decay usefulness on the candidate entries.
	for i := start; i < p.cfg.Tables; i++ {
		idx := p.hist.Index(i, pc)
		if e := &p.tables[i][idx]; e.valid {
			e.u = threshold.SatDecU8(e.u, 0)
		}
	}
}

// OnCond implements predictor.Indirect.
func (p *ITTAGE) OnCond(pc uint64, taken bool) {
	p.hist.Shift(pc, taken)
	p.lastOK = false
}

// OnOther implements predictor.Indirect: unconditional transfers contribute
// path history.
func (p *ITTAGE) OnOther(pc, target uint64, bt trace.BranchType) {
	p.hist.ShiftPath(pc)
	p.lastOK = false
}

// OnCondSpan implements predictor.SpanFeeder: a whole conditional segment
// shifts into the global and path histories through one call — identical
// to OnCond per record, with the interface dispatch amortized over the run.
func (p *ITTAGE) OnCondSpan(c *trace.Columns, start, end int) {
	for i := start; i < end; i++ {
		r := c.At(i)
		p.hist.Shift(r.PC, r.Taken)
	}
	p.lastOK = false
}

// OnOtherSpan implements predictor.SpanFeeder: only the path history
// advances, one whole segment per call.
func (p *ITTAGE) OnOtherSpan(c *trace.Columns, start, end int, bt trace.BranchType) {
	for i := start; i < end; i++ {
		p.hist.ShiftPath(c.At(i).PC)
	}
	p.lastOK = false
}

// StorageBits implements predictor.Indirect.
func (p *ITTAGE) StorageBits() int {
	regionIndexBits := log2ceil(p.cfg.RegionEntries)
	bits := p.cfg.Tables * p.cfg.TableEntries * (1 + 2 + 2 + regionIndexBits + p.cfg.OffsetBits)
	bits += p.cfg.BaseEntries * (1 + 1 + regionIndexBits + p.cfg.OffsetBits)
	bits += p.cfg.RegionEntries * (44 - p.cfg.OffsetBits + log2ceil(p.cfg.RegionEntries))
	return bits + p.hist.StorageBits()
}

func log2ceil(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
