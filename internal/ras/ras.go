// Package ras implements a return address stack (Kaeli & Emma), the
// structure that predicts procedure-return targets. The simulator routes
// Return branches here so that, as in the paper, the indirect predictors are
// evaluated only on indirect jumps and calls.
package ras

// Stack is a bounded circular return address stack. Pushing past capacity
// overwrites the oldest entry, mimicking hardware overflow behaviour.
type Stack struct {
	addrs []uint64
	top   int // index of the next free slot
	depth int // live entries, <= cap
}

// New returns a stack with the given capacity.
func New(capacity int) *Stack {
	if capacity <= 0 {
		panic("ras: New with non-positive capacity")
	}
	return &Stack{addrs: make([]uint64, capacity)}
}

// Push records a return address (the instruction after a call).
func (s *Stack) Push(addr uint64) {
	s.addrs[s.top] = addr
	s.top = (s.top + 1) % len(s.addrs)
	if s.depth < len(s.addrs) {
		s.depth++
	}
}

// Pop predicts and consumes the top return address. ok is false when the
// stack is empty (prediction must be counted as wrong unless the actual
// target happens to match the zero value, which callers should not rely on).
func (s *Stack) Pop() (addr uint64, ok bool) {
	if s.depth == 0 {
		return 0, false
	}
	s.top = (s.top - 1 + len(s.addrs)) % len(s.addrs)
	s.depth--
	return s.addrs[s.top], true
}

// Predict pops a return address and scores it against the actual target,
// returning whether the prediction was correct.
func (s *Stack) Predict(actual uint64) bool {
	addr, ok := s.Pop()
	return ok && addr == actual
}

// Depth returns the number of live entries.
func (s *Stack) Depth() int { return s.depth }

// Capacity returns the configured capacity.
func (s *Stack) Capacity() int { return len(s.addrs) }

// Reset empties the stack.
func (s *Stack) Reset() {
	s.top, s.depth = 0, 0
}
