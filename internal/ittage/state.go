package ittage

import (
	"fmt"
	"io"

	"blbp/internal/region"
	"blbp/internal/snapshot"
)

// Snapshot section kinds of the ITTAGE container.
const (
	snapName   = "ittage"
	secTables  = "tables"
	secBase    = "base"
	secRegions = "regions"
	maxCtr     = 3
	maxUseful  = 3
)

// EncodeState implements predictor.Snapshotter: the trained state framed in
// a BLBPSNP1 container under name "ittage" and the configuration
// fingerprint. The prediction cache (provider/alt bookkeeping for the
// matching Update) is not serialized; restore flushes it and the next
// Predict recomputes it from the restored tables, through the exact code
// path Update's out-of-contract recompute uses.
func (p *ITTAGE) EncodeState(w io.Writer) error {
	c := snapshot.NewContainer(snapName, snapshot.Fingerprint(p.cfg))
	te := c.Section(secTables)
	te.Int(len(p.tables))
	for _, tbl := range p.tables {
		te.Int(len(tbl))
		for i := range tbl {
			en := &tbl[i]
			te.U64(en.tag)
			te.Int(en.ref.Index)
			te.U32(en.ref.Gen)
			te.U64(en.offset)
			te.U8(en.ctr)
			te.U8(en.u)
			te.Bool(en.valid)
		}
	}
	be := c.Section(secBase)
	be.Int(len(p.base))
	for i := range p.base {
		en := &p.base[i]
		be.Int(en.ref.Index)
		be.U32(en.ref.Gen)
		be.U64(en.offset)
		be.U8(en.hyst)
		be.Bool(en.valid)
	}
	p.regions.EncodeState(c.Section(secRegions))
	p.hist.EncodeState(c)
	return c.EncodeTo(w)
}

// RestoreState implements predictor.Snapshotter, reinstating state captured
// by EncodeState into a predictor built from the same configuration. On
// error the predictor's state is unspecified: discard it or Reset.
func (p *ITTAGE) RestoreState(r io.Reader) error {
	dc, err := snapshot.ReadContainer(r, snapName, snapshot.Fingerprint(p.cfg))
	if err != nil {
		return err
	}

	d, err := dc.Section(secTables)
	if err != nil {
		return err
	}
	if n := d.Int(); d.Err() == nil && n != len(p.tables) {
		return fmt.Errorf("%w: %d tagged tables, have %d", snapshot.ErrMismatch, n, len(p.tables))
	}
	tables := make([][]taggedEntry, len(p.tables))
	for ti := range p.tables {
		if n := d.Int(); d.Err() == nil && n != len(p.tables[ti]) {
			return fmt.Errorf("%w: table %d holds %d entries, have %d", snapshot.ErrMismatch, ti, n, len(p.tables[ti]))
		}
		tbl := make([]taggedEntry, len(p.tables[ti]))
		tagMask := uint64(1)<<uint(p.hist.TagBits(ti)) - 1
		for i := range tbl {
			en := taggedEntry{
				tag:    d.U64(),
				ref:    region.Ref{Index: d.Int(), Gen: d.U32()},
				offset: d.U64(),
				ctr:    d.U8(),
				u:      d.U8(),
				valid:  d.Bool(),
			}
			if d.Err() != nil {
				break
			}
			if en.tag&^tagMask != 0 {
				return fmt.Errorf("%w: table %d tag %#x wider than %d bits", snapshot.ErrCorrupt, ti, en.tag, p.hist.TagBits(ti))
			}
			if en.ctr > maxCtr || en.u > maxUseful {
				return fmt.Errorf("%w: table %d counters (%d,%d) out of range", snapshot.ErrCorrupt, ti, en.ctr, en.u)
			}
			if en.ref.Index < 0 || en.ref.Index >= p.cfg.RegionEntries {
				return fmt.Errorf("%w: region index %d outside array", snapshot.ErrCorrupt, en.ref.Index)
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
	if n := d.Int(); d.Err() == nil && n != len(p.base) {
		return fmt.Errorf("%w: base table holds %d entries, have %d", snapshot.ErrMismatch, n, len(p.base))
	}
	base := make([]baseEntry, len(p.base))
	for i := range base {
		en := baseEntry{
			ref:    region.Ref{Index: d.Int(), Gen: d.U32()},
			offset: d.U64(),
			hyst:   d.U8(),
			valid:  d.Bool(),
		}
		if d.Err() != nil {
			break
		}
		if en.hyst > 1 {
			return fmt.Errorf("%w: base hysteresis %d out of range", snapshot.ErrCorrupt, en.hyst)
		}
		if en.ref.Index < 0 || en.ref.Index >= p.cfg.RegionEntries {
			return fmt.Errorf("%w: region index %d outside array", snapshot.ErrCorrupt, en.ref.Index)
		}
		base[i] = en
	}
	if err := d.Finish(); err != nil {
		return err
	}

	if d, err = dc.Section(secRegions); err != nil {
		return err
	}
	if err := p.regions.RestoreState(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}

	if err := p.hist.RestoreState(dc); err != nil {
		return err
	}

	for ti := range p.tables {
		copy(p.tables[ti], tables[ti])
	}
	copy(p.base, base)
	p.lastPC, p.lastOK = 0, false
	return nil
}
