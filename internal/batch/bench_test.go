package batch

import (
	"fmt"
	"testing"

	"blbp/internal/core"
)

// benchWorkload builds nStreams heterogeneous event sequences from the
// shared workload family, so every benchmark in this file (and the serving
// rows of TestBatchedMatchesSerial) compares the batched and serial paths
// on the same traffic.
func benchWorkload(nStreams, nEvents int) [][]Event {
	return GenStreams(1234, nStreams, nEvents)
}

// BenchmarkSerialStreams drives every stream through its own predictor with
// the plain serial loop: the baseline the batched engine competes with.
func BenchmarkSerialStreams(b *testing.B) {
	for _, nStreams := range []int{1, 64} {
		b.Run(fmt.Sprintf("s%d", nStreams), func(b *testing.B) {
			streams := benchWorkload(nStreams, 2048)
			preds := make([]*core.BLBP, nStreams)
			for s := range preds {
				preds[s] = core.New(core.DefaultConfig())
			}
			warm := func() {
				for s, evs := range streams {
					p := preds[s]
					for _, ev := range evs {
						if ev.Kind == Cond {
							p.OnCond(ev.PC, ev.Taken)
						} else {
							p.Predict(ev.PC)
							p.Update(ev.PC, ev.Target)
						}
					}
				}
			}
			warm()
			indirect := 0
			for _, evs := range streams {
				for _, ev := range evs {
					if ev.Kind == Indirect {
						indirect++
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += indirect {
				warm()
			}
		})
	}
}

// BenchmarkPoolDrain serves the same streams through the pooled engine at
// several batch widths; ns/op is per indirect prediction served — the full
// predict+train contract, directly comparable to BenchmarkSerialStreams.
// The recycle_b64 case times a serving cycle instead: each op is one
// servingCycle over GenStreams(1234, 64, 512) under ServingConfig (Retire
// and re-Admit 64 streams, Feed them, Drain at width 64, take the
// results), so its allocs/op shows whether the pool reuses its queues and
// result logs.
func BenchmarkPoolDrain(b *testing.B) {
	b.Run("recycle_b64", func(b *testing.B) {
		cycle := servingCycle(NewPool(NewEngine(ServingConfig(), 64)), benchWorkload(64, 512))
		cycle()
		cycle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	})
	for _, size := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("b%d", size), func(b *testing.B) {
			nStreams := size
			streams := benchWorkload(nStreams, 2048)
			pool := NewPool(NewEngine(core.DefaultConfig(), nStreams))
			ids := make([]int, nStreams)
			for s := range streams {
				ids[s], _ = pool.Admit()
			}
			feed := func() {
				for s, evs := range streams {
					for _, ev := range evs {
						pool.Feed(ids[s], ev)
					}
				}
			}
			feed()
			indirect := pool.Drain(size)
			pool.TakeResults()
			b.ResetTimer()
			for i := 0; i < b.N; i += indirect {
				feed()
				pool.Drain(size)
				pool.TakeResults()
			}
		})
	}
}

// BenchmarkServing times the serving headline pair under ServingConfig
// (the pair BENCH_5.json records): s1_full is the serial single-stream
// contract (Predict, Update, and conditional feeds per event) and
// b{N}_predict is the engine's prediction-serving rate — PredictBatch over
// N warmed streams, one in-flight site per stream. The acceptance bar is
// b64_predict ≥ 2× s1_full.
func BenchmarkServing(b *testing.B) {
	cfg := ServingConfig()
	b.Run("s1_full", func(b *testing.B) {
		streams := benchWorkload(1, 2048)
		p := core.New(cfg)
		warm := func() {
			for _, ev := range streams[0] {
				if ev.Kind == Cond {
					p.OnCond(ev.PC, ev.Taken)
				} else {
					p.Predict(ev.PC)
					p.Update(ev.PC, ev.Target)
				}
			}
		}
		warm()
		indirect := 0
		for _, ev := range streams[0] {
			if ev.Kind == Indirect {
				indirect++
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i += indirect {
			warm()
		}
	})
	for _, size := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("b%d_predict", size), func(b *testing.B) {
			streams := benchWorkload(size, 2048)
			eng := NewEngine(cfg, size)
			slots := make([]int, size)
			pcs := make([]uint64, size)
			for s, evs := range streams {
				slots[s], _ = eng.Admit()
				p := eng.Stream(slots[s])
				for _, ev := range evs {
					if ev.Kind == Cond {
						p.OnCond(ev.PC, ev.Taken)
					} else {
						p.Predict(ev.PC)
						p.Update(ev.PC, ev.Target)
						pcs[s] = ev.PC
					}
				}
			}
			outT := make([]uint64, size)
			outOK := make([]bool, size)
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				eng.PredictBatch(slots, pcs, outT, outOK)
			}
		})
	}
}
