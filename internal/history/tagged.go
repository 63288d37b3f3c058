package history

import (
	"fmt"

	"blbp/internal/hashing"
	"blbp/internal/snapshot"
)

// TaggedGeometry is the shape of a TAGE-family predictor's tables: the
// configuration fields cond.TAGEConfig and ittage.Config share (and
// document), in TAGEConfig's order.
type TaggedGeometry struct {
	BaseEntries, Tables, TableEntries                   int
	MinHist, MaxHist, TagBitsMin, HistBits, ResetPeriod int
}

// Validate checks that the geometry can be built: positive sizes and reset
// period, history lengths MinHist < MaxHist < HistBits with room for a
// distinct length per table, and a TagBitsMin in [6,16]. Each error names
// the field at fault.
func (g TaggedGeometry) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"BaseEntries", g.BaseEntries}, {"Tables", g.Tables}, {"TableEntries", g.TableEntries},
		{"MinHist", g.MinHist}, {"ResetPeriod", g.ResetPeriod},
	} {
		if f.v <= 0 {
			return fmt.Errorf("%s=%d must be positive", f.name, f.v)
		}
	}
	if g.MaxHist <= g.MinHist || g.MaxHist >= g.HistBits {
		return fmt.Errorf("history lengths MinHist=%d, MaxHist=%d inconsistent with HistBits=%d", g.MinHist, g.MaxHist, g.HistBits)
	}
	if g.Tables > g.MaxHist-g.MinHist+1 {
		return fmt.Errorf("Tables=%d exceed the %d history lengths from MinHist to MaxHist", g.Tables, g.MaxHist-g.MinHist+1)
	}
	if g.TagBitsMin < 6 || g.TagBitsMin > 16 {
		return fmt.Errorf("TagBitsMin=%d outside [6,16]", g.TagBitsMin)
	}
	return nil
}

// UseAltMin and UseAltMax bound Tagged.UseAltOnNA, a signed 4-bit
// saturating counter.
const UseAltMin, UseAltMax = -8, 7

// Tagged is the history half of a TAGE-family predictor, which TAGE and
// ITTAGE each hold by value: the global history with each tagged table's
// index and tag folds over its geometric length, the tag widths, the
// index, tag and base-index hashes, the 16-bit path history, the
// allocation xorshift, the update count that times the usefulness resets,
// and the use-alt-on-new counter. The predictors keep their entries, base
// tables and training rules.
type Tagged struct {
	g        TaggedGeometry
	seed     uint64 // the xorshift state of a fresh or Reset history
	ghist    *FoldedSet
	idxFolds []FoldID // per-table index fold over its history length
	tagFolds []FoldID // per-table tag fold over the same interval
	tagBits  []int
	phist    uint64
	updates  int64
	rng      uint64

	// UseAltOnNA, in [UseAltMin, UseAltMax], picks the alternate
	// prediction over a newly allocated provider when non-negative. The
	// predictor trains it through threshold's saturating helpers.
	UseAltOnNA int8
}

// NewTagged returns the empty history of a predictor of geometry g, which
// must pass Validate, with its allocation xorshift at seed. Table i gets a
// 22-bit index fold and a 17-bit tag fold over its GeometricLengths
// length, and a tag TagBitsMin+i/2 bits wide, at most 15.
func NewTagged(g TaggedGeometry, seed uint64) Tagged {
	h := Tagged{
		g:        g,
		seed:     seed,
		ghist:    NewFoldedSet(g.HistBits),
		idxFolds: make([]FoldID, g.Tables),
		tagFolds: make([]FoldID, g.Tables),
		tagBits:  make([]int, g.Tables),
		rng:      seed,
	}
	for i, l := range GeometricLengths(g.MinHist, g.MaxHist, g.Tables) {
		h.idxFolds[i] = h.ghist.Register(0, l-1, 22)
		h.tagFolds[i] = h.ghist.Register(0, l-1, 17)
		h.tagBits[i] = min(g.TagBitsMin+i/2, 15)
	}
	return h
}

// Reset restores the fresh state: empty global and path histories, a zero
// use-alt counter and update count, and the xorshift at its seed.
func (h *Tagged) Reset() {
	h.ghist.Reset()
	h.phist, h.updates, h.rng, h.UseAltOnNA = 0, 0, h.seed, 0
}

// TagBits returns table i's tag width.
func (h *Tagged) TagBits(i int) int { return h.tagBits[i] }

// Index returns table i's entry index for pc.
func (h *Tagged) Index(i int, pc uint64) int {
	fold := h.ghist.Value(h.idxFolds[i])
	return hashing.Index(hashing.Combine(hashing.Mix64(pc)+uint64(i)<<48, fold^h.phist), h.g.TableEntries)
}

// Tag returns table i's tag for pc.
func (h *Tagged) Tag(i int, pc uint64) uint64 {
	fold := h.ghist.Value(h.tagFolds[i])
	return hashing.Tag(hashing.Combine(hashing.Mix64(pc)*3+uint64(i)<<40, fold*7+h.phist), h.tagBits[i])
}

// BaseIndex returns pc's base-table index.
func (h *Tagged) BaseIndex(pc uint64) int {
	return hashing.Index(hashing.Mix64(pc), h.g.BaseEntries)
}

// Shift records a conditional branch: its outcome enters the global
// history and its PC the path history. It inlines, so a per-record loop
// pays FoldedSet.Shift's call and nothing more.
//
//blbp:hot
func (h *Tagged) Shift(pc uint64, taken bool) {
	h.ghist.Shift(taken)
	h.phist = (h.phist<<1 ^ pc>>2) & 0xffff
}

// ShiftPath records a branch the global history leaves out: only its PC
// enters the path history.
func (h *Tagged) ShiftPath(pc uint64) { h.phist = (h.phist<<1 ^ pc>>2) & 0xffff }

// ShiftIndirect records a resolved indirect branch: two hashed bits of its
// target enter the global history and its PC the path history.
func (h *Tagged) ShiftIndirect(pc, target uint64) {
	h.ghist.ShiftBits(hashing.Mix64(target), 2)
	h.ShiftPath(pc)
}

// AllocStart returns the first table an allocation after a misprediction
// tries, given the providing table (negative when the base table or
// nothing provided): the next longer history, skipped one time in four by
// the xorshift when at least two tables remain, so allocations spread.
func (h *Tagged) AllocStart(provider int) int {
	start := max(provider+1, 0)
	if h.g.Tables-start > 1 {
		h.rng ^= h.rng << 13
		h.rng ^= h.rng >> 7
		h.rng ^= h.rng << 17
		if h.rng&3 == 0 {
			start++
		}
	}
	return start
}

// Tick counts one update and returns the usefulness bits to clear from
// every tagged entry: none, except at every ResetPeriod-th update, which
// clears the low bit and the high bit in turn.
func (h *Tagged) Tick() uint8 {
	h.updates++
	period := int64(h.g.ResetPeriod)
	switch {
	case h.updates%period != 0:
		return 0
	case h.updates/period&1 == 1:
		return 0b10
	}
	return 0b01
}

// StorageBits is the history's share of the predictor's budget: the
// global and path histories, the use-alt counter, and every entry's tag.
func (h *Tagged) StorageBits() int {
	bits := h.g.HistBits + 16 + 4
	for _, tb := range h.tagBits {
		bits += h.g.TableEntries * tb
	}
	return bits
}

// The snapshot sections with which a TAGE-family container ends.
const secGhist, secMisc = "ghist", "misc"

// EncodeState appends the history's sections to c: "ghist", the folded
// global history, then "misc", the path history, use-alt counter, update
// count and xorshift state.
func (h *Tagged) EncodeState(c *snapshot.Container) {
	h.ghist.EncodeState(c.Section(secGhist))
	me := c.Section(secMisc)
	me.U64(h.phist)
	me.I8(h.UseAltOnNA)
	me.I64(h.updates)
	me.U64(h.rng)
}

// RestoreState reinstates the sections EncodeState wrote, from a predictor
// of the same geometry. A path history wider than 16 bits, a use-alt
// counter out of range or a negative update count is snapshot.ErrCorrupt.
func (h *Tagged) RestoreState(dc *snapshot.Decoded) error {
	d, err := dc.Section(secGhist)
	if err != nil {
		return err
	}
	if err := h.ghist.RestoreState(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if d, err = dc.Section(secMisc); err != nil {
		return err
	}
	phist, useAlt, updates, rng := d.U64(), d.I8(), d.I64(), d.U64()
	if err := d.Finish(); err != nil {
		return err
	}
	switch {
	case phist > 0xffff:
		return fmt.Errorf("%w: path history %#x wider than 16 bits", snapshot.ErrCorrupt, phist)
	case useAlt < UseAltMin || useAlt > UseAltMax:
		return fmt.Errorf("%w: useAltOnNA %d out of range", snapshot.ErrCorrupt, useAlt)
	case updates < 0:
		return fmt.Errorf("%w: negative update count", snapshot.ErrCorrupt)
	}
	h.phist, h.UseAltOnNA, h.updates, h.rng = phist, useAlt, updates, rng
	return nil
}
