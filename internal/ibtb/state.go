package ibtb

import (
	"fmt"

	"blbp/internal/region"
	"blbp/internal/snapshot"
)

// EncodeState serializes the buffer: entry payloads (region refs and
// offsets), partial tags, valid masks, RRIP state, and the region array.
func (b *IBTB) EncodeState(e *snapshot.Enc) {
	e.Int(len(b.entries))
	for i := range b.entries {
		e.Int(b.entries[i].ref.Index)
		e.U32(b.entries[i].ref.Gen)
		e.U64(b.entries[i].offset)
	}
	e.U32s(b.tags)
	e.U64s(b.valid)
	b.rrip.EncodeState(e)
	b.regions.EncodeState(e)
}

// RestoreState reinstates state captured by EncodeState into a buffer of
// the same geometry.
func (b *IBTB) RestoreState(d *snapshot.Dec) error {
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(b.entries) {
		return fmt.Errorf("%w: %d IBTB entries, have %d", snapshot.ErrMismatch, n, len(b.entries))
	}
	offsetMask := uint64(1)<<uint(b.cfg.OffsetBits) - 1
	entries := make([]entry, n)
	for i := range entries {
		idx := d.Int()
		gen := d.U32()
		offset := d.U64()
		if d.Err() != nil {
			break
		}
		if idx < 0 || idx >= b.cfg.RegionEntries {
			return fmt.Errorf("%w: region index %d outside array of %d", snapshot.ErrCorrupt, idx, b.cfg.RegionEntries)
		}
		if offset&^offsetMask != 0 {
			return fmt.Errorf("%w: target offset %#x exceeds %d bits", snapshot.ErrCorrupt, offset, b.cfg.OffsetBits)
		}
		entries[i] = entry{ref: region.Ref{Index: idx, Gen: gen}, offset: offset}
	}
	tags := make([]uint32, len(b.tags))
	valid := make([]uint64, len(b.valid))
	d.U32sInto(tags)
	d.U64sInto(valid)
	if err := d.Err(); err != nil {
		return err
	}
	// Valid-mask bits beyond the associativity would make the way search
	// read stale payloads.
	for set := 0; set < b.cfg.Sets; set++ {
		for wi := 0; wi < b.maskWords; wi++ {
			rem := b.cfg.Assoc - wi<<6
			if rem >= 64 {
				continue
			}
			if valid[set*b.maskWords+wi]&^(uint64(1)<<uint(rem)-1) != 0 {
				return fmt.Errorf("%w: valid mask bits beyond associativity %d", snapshot.ErrCorrupt, b.cfg.Assoc)
			}
		}
	}
	if err := b.rrip.RestoreState(d); err != nil {
		return err
	}
	if err := b.regions.RestoreState(d); err != nil {
		return err
	}
	copy(b.entries, entries)
	copy(b.tags, tags)
	copy(b.valid, valid)
	return nil
}

// EncodeState serializes both levels.
func (h *Hierarchy) EncodeState(e *snapshot.Enc) {
	h.l1.EncodeState(e)
	h.l2.EncodeState(e)
}

// RestoreState reinstates state captured by EncodeState into a hierarchy of
// the same geometry.
func (h *Hierarchy) RestoreState(d *snapshot.Dec) error {
	if err := h.l1.RestoreState(d); err != nil {
		return err
	}
	return h.l2.RestoreState(d)
}
