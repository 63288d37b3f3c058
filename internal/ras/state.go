package ras

import (
	"fmt"

	"blbp/internal/snapshot"
)

// EncodeState serializes the stack contents: the address slots, whose
// count prefix is the capacity, the top index and the live depth.
func (s *Stack) EncodeState(e *snapshot.Enc) {
	e.U64s(s.addrs)
	e.Int(s.top)
	e.Int(s.depth)
}

// RestoreStack rebuilds a stack from state captured by EncodeState. The
// capacity is carried by the snapshot (as the address-slice length), so the
// caller need not know the original configuration; it passes only the
// largest capacity it accepts, which is checked before the stack is
// allocated.
func RestoreStack(d *snapshot.Dec, maxCapacity int) (*Stack, error) {
	capacity := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if capacity <= 0 || capacity > maxCapacity {
		return nil, fmt.Errorf("%w: RAS capacity %d outside (0,%d]", snapshot.ErrCorrupt, capacity, maxCapacity)
	}
	s := New(capacity)
	for i := range s.addrs {
		s.addrs[i] = d.U64()
	}
	s.top = d.Int()
	s.depth = d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if s.top < 0 || s.top >= capacity {
		return nil, fmt.Errorf("%w: stack top %d outside capacity %d", snapshot.ErrCorrupt, s.top, capacity)
	}
	if s.depth < 0 || s.depth > capacity {
		return nil, fmt.Errorf("%w: stack depth %d outside capacity %d", snapshot.ErrCorrupt, s.depth, capacity)
	}
	return s, nil
}
