package region

import "blbp/internal/snapshot"

// EncodeState serializes the region array: bases, generation counters,
// valid bits, and the LRU recency state.
func (a *Array) EncodeState(e *snapshot.Enc) {
	e.U64s(a.bases)
	e.U32s(a.gens)
	e.Bools(a.valid)
	a.lru.EncodeState(e)
}

// RestoreState reinstates state captured by EncodeState into an array of
// the same capacity.
func (a *Array) RestoreState(d *snapshot.Dec) error {
	bases := make([]uint64, len(a.bases))
	gens := make([]uint32, len(a.gens))
	valid := make([]bool, len(a.valid))
	d.U64sInto(bases)
	d.U32sInto(gens)
	d.BoolsInto(valid)
	if err := d.Err(); err != nil {
		return err
	}
	if err := a.lru.RestoreState(d); err != nil {
		return err
	}
	copy(a.bases, bases)
	copy(a.gens, gens)
	copy(a.valid, valid)
	return nil
}
