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

	"blbp/internal/hashing"
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

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if c.BaseEntries <= 0 || c.TableEntries <= 0 || c.Tables <= 0 {
		return fmt.Errorf("ittage: table geometry must be positive")
	}
	if c.MinHist <= 0 || c.MaxHist <= c.MinHist || c.MaxHist >= c.HistBits {
		return fmt.Errorf("ittage: history lengths %d..%d inconsistent with %d history bits", c.MinHist, c.MaxHist, c.HistBits)
	}
	if c.TagBitsMin < 6 || c.TagBitsMin > 16 {
		return fmt.Errorf("ittage: TagBitsMin=%d out of range", c.TagBitsMin)
	}
	if c.ResetPeriod <= 0 {
		return fmt.Errorf("ittage: ResetPeriod must be positive")
	}
	return nil
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
	cfg      Config
	tagBits  []int
	tables   [][]taggedEntry
	base     []baseEntry
	regions  *region.Array
	ghist    *history.FoldedSet
	idxFolds []history.FoldID // per-table index fold over its history length
	tagFolds []history.FoldID // per-table tag fold over the same interval
	phist    uint64           // 16-bit path history

	useAltOnNA int8 // counter choosing altpred for newly allocated entries

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

	updates int64
	rng     uint64 // deterministic xorshift for allocation choice
}

// New constructs an ITTAGE predictor; it panics on invalid configuration.
func New(cfg Config) *ITTAGE {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lens := history.GeometricLengths(cfg.MinHist, cfg.MaxHist, cfg.Tables)
	tables := make([][]taggedEntry, cfg.Tables)
	tagBits := make([]int, cfg.Tables)
	ghist := history.NewFoldedSet(cfg.HistBits)
	idxFolds := make([]history.FoldID, cfg.Tables)
	tagFolds := make([]history.FoldID, cfg.Tables)
	for i := range tables {
		tables[i] = make([]taggedEntry, cfg.TableEntries)
		tb := cfg.TagBitsMin + i/2
		if tb > 15 {
			tb = 15
		}
		tagBits[i] = tb
		idxFolds[i] = ghist.Register(0, lens[i]-1, 22)
		tagFolds[i] = ghist.Register(0, lens[i]-1, 17)
	}
	return &ITTAGE{
		cfg:      cfg,
		tagBits:  tagBits,
		tables:   tables,
		base:     make([]baseEntry, cfg.BaseEntries),
		regions:  region.New(cfg.RegionEntries, cfg.OffsetBits),
		ghist:    ghist,
		idxFolds: idxFolds,
		tagFolds: tagFolds,
		rng:      rngSeed,
	}
}

// rngSeed seeds the allocation xorshift of every fresh or Reset predictor.
const rngSeed = 0x9e3779b97f4a7c15

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
	p.ghist.Reset()
	p.phist = 0
	p.useAltOnNA = 0
	p.lastPC, p.lastOK = 0, false
	p.updates = 0
	p.rng = rngSeed
}

// Name implements predictor.Indirect.
func (p *ITTAGE) Name() string { return "ittage" }

func (p *ITTAGE) nextRand() uint64 {
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	return p.rng
}

func (p *ITTAGE) tableIndex(i int, pc uint64) int {
	fold := p.ghist.Value(p.idxFolds[i])
	h := hashing.Combine(hashing.Mix64(pc)+uint64(i)<<48, fold^p.phist)
	return hashing.Index(h, p.cfg.TableEntries)
}

func (p *ITTAGE) tableTag(i int, pc uint64) uint64 {
	fold := p.ghist.Value(p.tagFolds[i])
	h := hashing.Combine(hashing.Mix64(pc)*3+uint64(i)<<40, fold*7+p.phist)
	return hashing.Tag(h, p.tagBits[i])
}

func (p *ITTAGE) baseIndex(pc uint64) int {
	return hashing.Index(hashing.Mix64(pc), p.cfg.BaseEntries)
}

// Predict implements predictor.Indirect.
func (p *ITTAGE) Predict(pc uint64) (uint64, bool) {
	p.lastPC, p.lastOK = pc, true
	p.provider, p.altProvider = -2, -2
	p.lastPredOK, p.lastAltOK = false, false

	// Find the two longest-history tag matches.
	for i := p.cfg.Tables - 1; i >= 0; i-- {
		idx := p.tableIndex(i, pc)
		e := &p.tables[i][idx]
		if !e.valid || e.tag != p.tableTag(i, pc) {
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
		bi := p.baseIndex(pc)
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
		bi := p.baseIndex(pc)
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
	if e.ctr == 0 && p.useAltOnNA >= 0 && p.lastAltOK {
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
	p.updates++

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
				p.useAltOnNA = threshold.SatInc8(p.useAltOnNA, 7)
			case p.lastPred == actual:
				p.useAltOnNA = threshold.SatDec8(p.useAltOnNA, -8)
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
	bi := p.baseIndex(pc)
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
	if p.updates%int64(p.cfg.ResetPeriod) == 0 {
		phase := (p.updates / int64(p.cfg.ResetPeriod)) & 1
		var mask uint8 = 0b01
		if phase == 1 {
			mask = 0b10
		}
		for _, tbl := range p.tables {
			for j := range tbl {
				tbl[j].u &^= mask
			}
		}
	}

	// History update: indirect branches fold hashed target bits into
	// global history and the path register.
	p.ghist.ShiftBits(hashing.Mix64(actual), 2)
	p.phist = (p.phist<<1 ^ pc>>2) & 0xFFFF
}

// allocate installs the actual target in up to one table with history
// longer than the provider's, preferring entries with zero usefulness and
// decaying usefulness when none is available (Seznec's allocation rule).
func (p *ITTAGE) allocate(pc, actual uint64) {
	start := p.provider + 1
	if p.provider < 0 {
		start = 0
	}
	// Randomize the starting point a little so allocations spread across
	// tables (matches the reference implementation's behaviour).
	if avail := p.cfg.Tables - start; avail > 1 {
		r := p.nextRand()
		if r&3 == 0 { // skip one table 25% of the time
			start++
		}
	}
	for i := start; i < p.cfg.Tables; i++ {
		idx := p.tableIndex(i, pc)
		e := &p.tables[i][idx]
		if !e.valid || e.u == 0 {
			ref, off := p.regions.Acquire(actual)
			p.tables[i][idx] = taggedEntry{
				tag:    p.tableTag(i, pc),
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
		idx := p.tableIndex(i, pc)
		if e := &p.tables[i][idx]; e.valid {
			e.u = threshold.SatDecU8(e.u, 0)
		}
	}
}

// OnCond implements predictor.Indirect.
func (p *ITTAGE) OnCond(pc uint64, taken bool) {
	p.ghist.Shift(taken)
	p.phist = (p.phist<<1 ^ pc>>2) & 0xFFFF
	p.lastOK = false
}

// OnOther implements predictor.Indirect: unconditional transfers contribute
// path history.
func (p *ITTAGE) OnOther(pc, target uint64, bt trace.BranchType) {
	p.phist = (p.phist<<1 ^ pc>>2) & 0xFFFF
	p.lastOK = false
}

// OnCondSpan implements predictor.SpanFeeder: a whole conditional segment
// shifts into the global and path histories through one call — identical
// to OnCond per record, with the interface dispatch amortized over the run.
func (p *ITTAGE) OnCondSpan(c *trace.Columns, start, end int) {
	phist := p.phist
	for i := start; i < end; i++ {
		r := c.At(i)
		p.ghist.Shift(r.Taken)
		phist = (phist<<1 ^ r.PC>>2) & 0xFFFF
	}
	p.phist = phist
	p.lastOK = false
}

// OnOtherSpan implements predictor.SpanFeeder: only the path history
// advances, one whole segment per call.
func (p *ITTAGE) OnOtherSpan(c *trace.Columns, start, end int, bt trace.BranchType) {
	phist := p.phist
	for i := start; i < end; i++ {
		phist = (phist<<1 ^ c.At(i).PC>>2) & 0xFFFF
	}
	p.phist = phist
	p.lastOK = false
}

// StorageBits implements predictor.Indirect.
func (p *ITTAGE) StorageBits() int {
	regionIndexBits := log2ceil(p.cfg.RegionEntries)
	bits := 0
	for i := range p.tables {
		perEntry := 1 + p.tagBits[i] + 2 + 2 + regionIndexBits + p.cfg.OffsetBits
		bits += p.cfg.TableEntries * perEntry
	}
	bits += p.cfg.BaseEntries * (1 + 1 + regionIndexBits + p.cfg.OffsetBits)
	bits += p.cfg.RegionEntries * (44 - p.cfg.OffsetBits + log2ceil(p.cfg.RegionEntries))
	bits += p.cfg.HistBits + 16 + 4
	return bits
}

func log2ceil(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
