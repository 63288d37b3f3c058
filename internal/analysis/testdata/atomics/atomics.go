// Package atomics is analyzer testdata. The analyzer applies to every
// package, so the load path does not matter.
package atomics

import "sync/atomic"

type stats struct {
	hits  int64
	boxed atomic.Int64
}

func (s *stats) record() {
	atomic.AddInt64(&s.hits, 1) // want `atomic.AddInt64 operates on a plain variable`
	s.boxed.Add(1)              // ok: atomic.Int64 is safe by type
}

func (s *stats) total() int64 {
	return atomic.LoadInt64(&s.hits) + s.boxed.Load() // want `atomic.LoadInt64 operates on a plain variable`
}
