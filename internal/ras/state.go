package ras

import (
	"fmt"

	"blbp/internal/snapshot"
)

// EncodeState serializes the stack contents: the address slots, the top
// index and the live depth.
func (s *Stack) EncodeState(e *snapshot.Enc) {
	e.U64s(s.addrs)
	e.Int(s.top)
	e.Int(s.depth)
}

// RestoreStack rebuilds a stack from state captured by EncodeState. The
// capacity is carried by the snapshot (as the address-slice length), so the
// caller need not know the original configuration.
func RestoreStack(d *snapshot.Dec, capacity int) (*Stack, error) {
	s := New(capacity)
	if err := s.RestoreState(d); err != nil {
		return nil, err
	}
	return s, nil
}

// RestoreState reinstates state captured by EncodeState into a stack of the
// same capacity.
func (s *Stack) RestoreState(d *snapshot.Dec) error {
	addrs := make([]uint64, len(s.addrs))
	d.U64sInto(addrs)
	top := d.Int()
	depth := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if top < 0 || top >= len(s.addrs) {
		return fmt.Errorf("%w: stack top %d outside capacity %d", snapshot.ErrCorrupt, top, len(s.addrs))
	}
	if depth < 0 || depth > len(s.addrs) {
		return fmt.Errorf("%w: stack depth %d outside capacity %d", snapshot.ErrCorrupt, depth, len(s.addrs))
	}
	copy(s.addrs, addrs)
	s.top = top
	s.depth = depth
	return nil
}
