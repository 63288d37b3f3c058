package batch

import (
	"math/rand"

	"blbp/internal/core"
)

// GenStreams builds per-stream event sequences with heterogeneous entropy:
// stream s gets its own branch sites, target-set sizes from 1 (monomorphic)
// up to 16 (high-entropy dispatch), and its own conditional traffic mix.
// The same (seed, nStreams, nEvents) always yields the same streams, so the
// differential tests, the serving benchmarks and perfbench's batch_serve
// workload exercise one reproducible workload family.
func GenStreams(seed int64, nStreams, nEvents int) [][]Event {
	streams := make([][]Event, nStreams)
	for s := range streams {
		rng := rand.New(rand.NewSource(seed + int64(s)*7919))
		nSites := 1 + rng.Intn(6)
		sites := make([]struct {
			pc      uint64
			targets []uint64
		}, nSites)
		for i := range sites {
			sites[i].pc = 0x400000 + uint64(s)<<20 + uint64(i)*0x224
			k := 1 + rng.Intn(16)
			sites[i].targets = make([]uint64, k)
			for j := range sites[i].targets {
				sites[i].targets[j] = 0x500000 + uint64(s)<<20 + uint64(rng.Intn(1<<12))*4
			}
		}
		evs := make([]Event, nEvents)
		condRatio := 1 + rng.Intn(5) // streams differ in cond:indirect mix
		for i := range evs {
			if rng.Intn(condRatio+1) != 0 {
				evs[i] = Event{
					Kind:  Cond,
					PC:    0x600000 + uint64(s)<<20 + uint64(rng.Intn(64))*4,
					Taken: rng.Intn(3) != 0,
				}
				continue
			}
			site := &sites[rng.Intn(nSites)]
			evs[i] = Event{
				Kind:   Indirect,
				PC:     site.pc,
				Target: site.targets[rng.Intn(len(site.targets))],
			}
		}
		streams[s] = evs
	}
	return streams
}

// ServingConfig is the predictor configuration the multi-stream serving
// benchmarks (BenchmarkServing and perfbench's batch_serve) and the serving
// rows of TestBatchedMatchesSerial apply to both the serial baseline and
// the batched engine: the paper's per-bit perceptron with tables sized for
// a server slot — more weight rows and IBTB ways than the single-program
// default, since each admitted stream owns the whole budget. Using one
// config on both sides keeps the batched-vs-serial throughput ratio a
// measurement of the batching, not of the tables.
func ServingConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.TableEntries = 256
	cfg.IBTB.Sets = 16
	cfg.IBTB.Assoc = 16
	cfg.IBTB.RegionEntries = 64
	cfg.LocalEntries = 64
	return cfg
}
