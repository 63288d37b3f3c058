package cond

import (
	"fmt"
	"io"

	"blbp/internal/snapshot"
)

// Snapshot section kinds of the conditional-predictor containers.
const (
	tageSnapName = "tage"
	hpSnapName   = "hashed-perceptron"
	secTables    = "tables"
	secBase      = "base"
	secGhist     = "ghist"
	secWeights   = "weights"
	secLocal     = "local"
	secPath      = "path"
	secTheta     = "theta"
)

// EncodeState serializes the TAGE direction predictor into a BLBPSNP1
// container under name "tage". Train's prediction cache is not serialized:
// restore flushes it and the next Predict (or Train's out-of-contract
// recompute) rebuilds it from the restored tables.
func (t *TAGE) EncodeState(w io.Writer) error {
	c := snapshot.NewContainer(tageSnapName, snapshot.Fingerprint(t.cfg))
	te := c.Section(secTables)
	te.Int(len(t.tables))
	for _, tbl := range t.tables {
		te.Int(len(tbl))
		for i := range tbl {
			en := &tbl[i]
			te.U64(en.tag)
			te.I8(en.ctr)
			te.U8(en.u)
			te.Bool(en.valid)
		}
	}
	be := c.Section(secBase)
	be.Int(len(t.base))
	for _, ctr := range t.base {
		be.U8(uint8(ctr))
	}
	t.hist.EncodeState(c)
	return c.EncodeTo(w)
}

// RestoreState reinstates TAGE state captured by EncodeState into a
// predictor of the same configuration. On error the predictor's state is
// unspecified: discard it or Reset.
func (t *TAGE) RestoreState(r io.Reader) error {
	dc, err := snapshot.ReadContainer(r, tageSnapName, snapshot.Fingerprint(t.cfg))
	if err != nil {
		return err
	}

	d, err := dc.Section(secTables)
	if err != nil {
		return err
	}
	if n := d.Int(); d.Err() == nil && n != len(t.tables) {
		return fmt.Errorf("%w: %d tagged tables, have %d", snapshot.ErrMismatch, n, len(t.tables))
	}
	tables := make([][]tageEntry, len(t.tables))
	for ti := range t.tables {
		if n := d.Int(); d.Err() == nil && n != len(t.tables[ti]) {
			return fmt.Errorf("%w: table %d holds %d entries, have %d", snapshot.ErrMismatch, ti, n, len(t.tables[ti]))
		}
		tbl := make([]tageEntry, len(t.tables[ti]))
		tagMask := uint64(1)<<uint(t.hist.TagBits(ti)) - 1
		for i := range tbl {
			en := tageEntry{
				tag:   d.U64(),
				ctr:   d.I8(),
				u:     d.U8(),
				valid: d.Bool(),
			}
			if d.Err() != nil {
				break
			}
			if en.tag&^tagMask != 0 {
				return fmt.Errorf("%w: table %d tag %#x wider than %d bits", snapshot.ErrCorrupt, ti, en.tag, t.hist.TagBits(ti))
			}
			if en.ctr < -4 || en.ctr > 3 || en.u > 3 {
				return fmt.Errorf("%w: table %d counters (%d,%d) out of range", snapshot.ErrCorrupt, ti, en.ctr, en.u)
			}
			tbl[i] = en
		}
		tables[ti] = tbl
	}
	if err := d.Finish(); err != nil {
		return err
	}

	if d, err = dc.Section(secBase); err != nil {
		return err
	}
	if n := d.Int(); d.Err() == nil && n != len(t.base) {
		return fmt.Errorf("%w: base table holds %d entries, have %d", snapshot.ErrMismatch, n, len(t.base))
	}
	base := make([]counter2, len(t.base))
	for i := range base {
		v := d.U8()
		if d.Err() != nil {
			break
		}
		if v > 3 {
			return fmt.Errorf("%w: bimodal counter %d out of range", snapshot.ErrCorrupt, v)
		}
		base[i] = counter2(v)
	}
	if err := d.Finish(); err != nil {
		return err
	}

	if err := t.hist.RestoreState(dc); err != nil {
		return err
	}

	for ti := range t.tables {
		copy(t.tables[ti], tables[ti])
	}
	copy(t.base, base)
	t.lastPC, t.lastOK = 0, false
	return nil
}

// EncodeState serializes the hashed perceptron into a BLBPSNP1 container
// under name "hashed-perceptron".
func (h *HashedPerceptron) EncodeState(w io.Writer) error {
	c := snapshot.NewContainer(hpSnapName, snapshot.Fingerprint(h.cfg))
	we := c.Section(secWeights)
	we.Int(len(h.weights))
	for _, tbl := range h.weights {
		we.I8s(tbl)
	}
	h.ghist.EncodeState(c.Section(secGhist))
	h.local.EncodeState(c.Section(secLocal))
	h.path.EncodeState(c.Section(secPath))
	te := c.Section(secTheta)
	theta, tc := h.theta.State()
	te.Int(theta)
	te.Int(tc)
	return c.EncodeTo(w)
}

// RestoreState reinstates hashed-perceptron state captured by EncodeState
// into a predictor of the same configuration. On error the predictor's
// state is unspecified: discard it or Reset.
func (h *HashedPerceptron) RestoreState(r io.Reader) error {
	dc, err := snapshot.ReadContainer(r, hpSnapName, snapshot.Fingerprint(h.cfg))
	if err != nil {
		return err
	}

	d, err := dc.Section(secWeights)
	if err != nil {
		return err
	}
	if n := d.Int(); d.Err() == nil && n != len(h.weights) {
		return fmt.Errorf("%w: %d weight tables, have %d", snapshot.ErrMismatch, n, len(h.weights))
	}
	weights := make([][]int8, len(h.weights))
	for fi := range h.weights {
		tbl := make([]int8, len(h.weights[fi]))
		d.I8sInto(tbl)
		if d.Err() != nil {
			break
		}
		for i, wv := range tbl {
			if wv < h.wMin || wv > h.wMax {
				return fmt.Errorf("%w: weight %d at table %d entry %d outside [%d,%d]", snapshot.ErrCorrupt, wv, fi, i, h.wMin, h.wMax)
			}
		}
		weights[fi] = tbl
	}
	if err := d.Finish(); err != nil {
		return err
	}

	if d, err = dc.Section(secGhist); err != nil {
		return err
	}
	if err := h.ghist.RestoreState(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}

	if d, err = dc.Section(secLocal); err != nil {
		return err
	}
	if err := h.local.RestoreState(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}

	if d, err = dc.Section(secPath); err != nil {
		return err
	}
	if err := h.path.RestoreState(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}

	if d, err = dc.Section(secTheta); err != nil {
		return err
	}
	theta := d.Int()
	tc := d.Int()
	if err := d.Finish(); err != nil {
		return err
	}
	if err := h.theta.SetState(theta, tc); err != nil {
		return fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}

	for fi := range h.weights {
		copy(h.weights[fi], weights[fi])
	}
	h.lastPC, h.lastOK = 0, false
	return nil
}
