// Command bench measures simulation throughput — the branches and
// instructions the engine pushes through per second — and writes the
// numbers to a JSON report (BENCH_<n>.json by convention; see ROADMAP.md).
// It complements `go test -bench`: the testing benchmarks give fine-grained
// ns/op under the benchmark framework, while this command records the
// headline throughput figures in a machine-readable file that can be
// committed next to the results they contextualize.
//
// Usage:
//
//	bench [-out BENCH_6.json] [-base 60000] [-reps 3] [-parallel N]
//	      [-batch] [-batchsizes 1,8,64,256] [-batchshards 1,2,4]
//	      [-batchevents 2048] [-batchdump PREFIX]
//	      [-workload-spec FILE] [-cpuprofile F] [-memprofile F]
//
// -base sets the per-workload instruction budget for the suite wall-clock
// measurement (the full-scale experiment runs use 400k+; the default keeps
// the tool interactive). -reps controls how many times each measurement is
// repeated; the fastest repetition is reported, minimizing scheduler noise.
// -workload-spec substitutes the workload specs compiled from a JSON file
// (see internal/wspec) for the built-in suite in the suite measurements.
//
// The batch section (batch.go) measures the internal/batch multi-stream
// engine: the single-stream serial contract, the batched prediction-serving
// rate at the -batchsizes widths, and full-drain streams/second at the
// -batchshards shard counts, with a batched-vs-serial differential check
// per width. -batch runs only that section (plus the report header) — the
// quick mode the CI smoke and the README example use — and -batchdump
// writes each width's batched and serial prediction logs as CSV for an
// external diff.
//
// The suite measurements run on the experiments execution layer: one shared
// trace cache feeds both the single-worker (suite_pass) and multi-worker
// (suite_pass_parallel) measurements, so traces are built once and the
// conditional/RAS side of the simulation is replayed from the shared tape
// after the first repetition — the same warm path cmd/experiments hits when
// several drivers share a workload.
//
// The cold/warm pair (suite_pass_cold, suite_pass_warm) additionally times
// the suite pass from a fresh cache each repetition, trace acquisition
// included: cold builds every trace from its generator; warm preloads a
// spill directory the shared cache flushed at Close (the persistent tier a
// kept `cmd/experiments -cachekeep` run leaves behind), so the pair
// quantifies what a warm start saves end to end.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"blbp"
	"blbp/internal/experiments"
	"blbp/internal/sim"
	"blbp/internal/trace"
	"blbp/internal/tracecache"
	"blbp/internal/wspec"
)

// Report is the serialized benchmark result.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is the scheduler's processor limit at measurement time.
	GOMAXPROCS int `json:"gomaxprocs"`
	// ParallelMeaningful is false when GOMAXPROCS is 1: suite_pass_parallel
	// then degenerates to ≈ suite_pass and the batch_shards_* entries scale
	// flat by construction, so trajectory comparisons must not read those
	// numbers as parallel speedups.
	ParallelMeaningful bool `json:"parallel_meaningful"`
	// Parallel is the worker count of the suite_pass_parallel measurement.
	Parallel int     `json:"parallel"`
	Base     int64   `json:"suite_instr_base"`
	Reps     int     `json:"reps"`
	Results  []Entry `json:"results"`
	// TraceCache snapshots the shared trace-cache counters after all suite
	// measurements: builds counts distinct trace constructions (one per
	// workload regardless of how many measurements replayed it).
	TraceCache CacheCounters `json:"trace_cache"`
	// TraceCacheWarm snapshots the counters of the last suite_pass_warm
	// repetition's cache: zero builds and one preload hit per workload is
	// the warm-start contract.
	TraceCacheWarm CacheCounters `json:"trace_cache_warm"`
}

// CacheCounters is the serialized trace-cache counter snapshot.
type CacheCounters struct {
	Builds      int64 `json:"builds"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	SpillLoads  int64 `json:"spill_loads"`
	PreloadHits int64 `json:"preload_hits"`
	SpillErrors int64 `json:"spill_errors"`
	Evictions   int64 `json:"evictions"`
}

// counters converts a tracecache.Stats snapshot.
func counters(s tracecache.Stats) CacheCounters {
	return CacheCounters{
		Builds:      s.Builds,
		Hits:        s.Hits,
		Misses:      s.Misses,
		SpillLoads:  s.SpillLoads,
		PreloadHits: s.PreloadHits,
		SpillErrors: s.SpillErrors,
		Evictions:   s.Evictions,
	}
}

// Entry is one measured configuration.
type Entry struct {
	Name string `json:"name"`
	// Events is what was pushed through: branches for predictor
	// microbenchmarks, instructions for engine measurements.
	Events int64 `json:"events"`
	// Unit names the event kind.
	Unit      string  `json:"unit"`
	Seconds   float64 `json:"seconds"`
	PerSecond float64 `json:"per_second"`
}

// microTrace builds the moderately polymorphic virtual-dispatch trace the
// predictor microbenchmarks replay (mirrors the root bench_test.go
// workload).
func microTrace() *blbp.Trace {
	spec := blbp.NewVDispatchWorkload("micro", "bench", 200_000, blbp.VDispatchParams{
		Classes: 6, Sites: 4, Objects: 32, MethodWork: 40, MethodConds: 2,
		MonoCalls: 1, MonoSites: 20,
	})
	return spec.Build()
}

// fastest runs f reps times and returns the smallest elapsed duration.
func fastest(reps int, f func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now() //blbp:allow(determinism) a benchmark measures wall time by definition; durations never reach a results table
		f()
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// measurePredictor replays the trace through a fresh predictor, driving the
// engine contract by hand, and returns branches per second.
func measurePredictor(name string, tr *blbp.Trace, reps int, mk func() blbp.IndirectPredictor) Entry {
	d := fastest(reps, func() {
		p := mk()
		for i := 0; i < tr.Len(); i++ {
			r := tr.Record(i)
			switch {
			case r.Type == blbp.CondDirect:
				p.OnCond(r.PC, r.Taken)
			case r.Type.IsIndirect():
				p.Predict(r.PC)
				p.Update(r.PC, r.Target)
			default:
				p.OnOther(r.PC, r.Target, r.Type)
			}
		}
	})
	n := int64(tr.Len())
	return Entry{
		Name: name, Events: n, Unit: "branches",
		Seconds: d.Seconds(), PerSecond: float64(n) / d.Seconds(),
	}
}

// measureEngine runs the full engine (hashed perceptron + RAS + BLBP) over
// the trace and returns instructions per second.
func measureEngine(tr *blbp.Trace, reps int) (Entry, error) {
	var simErr error
	d := fastest(reps, func() {
		if _, err := blbp.Simulate(tr, blbp.NewBLBP(blbp.DefaultBLBPConfig())); err != nil {
			simErr = err
		}
	})
	if simErr != nil {
		return Entry{}, simErr
	}
	instr := tr.Instructions()
	return Entry{
		Name: "engine_end_to_end", Events: instr, Unit: "instructions",
		Seconds: d.Seconds(), PerSecond: float64(instr) / d.Seconds(),
	}, nil
}

// measureSpillDecode times decoding the spill-file encoding of tr — the
// per-trace cost of a warm start from the trace cache's persistent tier.
func measureSpillDecode(tr *blbp.Trace, reps int) (Entry, error) {
	var buf bytes.Buffer
	h := trace.SpillHeader{Name: tr.Name, Seed: 1, Instructions: tr.Instructions()}
	if err := trace.WriteSpillColumns(&buf, h, tr); err != nil {
		return Entry{}, err
	}
	data := buf.Bytes()
	var decErr error
	d := fastest(reps, func() {
		_, got, err := trace.ReadSpillColumns(bytes.NewReader(data))
		if err != nil {
			decErr = err
			return
		}
		if got.Len() != tr.Len() {
			decErr = fmt.Errorf("decoded %d records, want %d", got.Len(), tr.Len())
		}
	})
	if decErr != nil {
		return Entry{}, decErr
	}
	n := int64(tr.Len())
	return Entry{
		Name: "spill_decode", Events: n, Unit: "records",
		Seconds: d.Seconds(), PerSecond: float64(n) / d.Seconds(),
	}, nil
}

// measureSimRun runs one full-engine pass (hashed perceptron + BLBP) over
// the micro trace through sim.Run and returns records per second.
func measureSimRun(tr *blbp.Trace, reps int) (Entry, error) {
	var simErr error
	d := fastest(reps, func() {
		cp := blbp.NewHashedPerceptron()
		ips := []blbp.IndirectPredictor{blbp.NewBLBP(blbp.DefaultBLBPConfig())}
		if _, err := sim.Run(tr, cp, ips, sim.Options{}); err != nil {
			simErr = err
		}
	})
	if simErr != nil {
		return Entry{}, simErr
	}
	n := int64(tr.Len())
	return Entry{
		Name: "sim_run_columnar", Events: n, Unit: "records",
		Seconds: d.Seconds(), PerSecond: float64(n) / d.Seconds(),
	}, nil
}

// suitePass is the measured configuration of the suite measurements: the
// shape of one cmd/experiments pass (ITTAGE + BLBP over a shared hashed
// perceptron).
func suitePass() experiments.Pass {
	return experiments.Shared(experiments.CondKeyHP, func() (blbp.ConditionalPredictor, []blbp.IndirectPredictor) {
		return blbp.NewHashedPerceptron(), []blbp.IndirectPredictor{
			blbp.NewITTAGE(blbp.DefaultITTAGEConfig()),
			blbp.NewBLBP(blbp.DefaultBLBPConfig()),
		}
	})
}

// measureSuite runs the suite pass on the experiments execution layer with
// the given worker count, sharing cache (and therefore traces and tapes)
// with every other suite measurement. Traces are prebuilt through the cache
// outside the timed region, as in the previous schema where construction
// was untimed.
func measureSuite(name string, specs []blbp.WorkloadSpec, cache *tracecache.Cache, workers, reps int) (Entry, error) {
	var instr int64
	for _, s := range specs {
		instr += cache.Get(s).Columns().Instructions()
	}
	r := experiments.NewRunnerCache(workers, cache)
	defer r.Close()
	passes := []experiments.Pass{suitePass()}
	var simErr error
	d := fastest(reps, func() {
		if _, err := r.RunSuite(specs, passes); err != nil {
			simErr = err
		}
	})
	if simErr != nil {
		return Entry{}, simErr
	}
	return Entry{
		Name: name, Events: instr, Unit: "instructions",
		Seconds: d.Seconds(), PerSecond: float64(instr) / d.Seconds(),
	}, nil
}

// measureSuiteStart times the suite pass from a fresh cache each
// repetition, trace acquisition included — mkCache decides whether that
// acquisition runs the generators (cold) or decodes a preloaded spill
// directory (warm). Returns the last repetition's cache counters alongside
// the timing.
func measureSuiteStart(name string, specs []blbp.WorkloadSpec, instr int64, reps int, mkCache func() *tracecache.Cache) (Entry, tracecache.Stats, error) {
	passes := []experiments.Pass{suitePass()}
	var simErr error
	var last tracecache.Stats
	d := fastest(reps, func() {
		cache := mkCache()
		defer cache.Close()
		r := experiments.NewRunnerCache(1, cache)
		defer r.Close()
		if _, err := r.RunSuite(specs, passes); err != nil {
			simErr = err
		}
		last = cache.Stats()
	})
	if simErr != nil {
		return Entry{}, last, simErr
	}
	return Entry{
		Name: name, Events: instr, Unit: "instructions",
		Seconds: d.Seconds(), PerSecond: float64(instr) / d.Seconds(),
	}, last, nil
}

// suiteSpecs resolves the population the suite measurements run over: the
// built-in suite at base, or the workload specs compiled from specFile
// (-workload-spec), so custom populations get the same throughput numbers.
func suiteSpecs(base int64, specFile string) ([]blbp.WorkloadSpec, error) {
	if specFile == "" {
		return wspec.Suite(base), nil
	}
	data, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	wss, err := wspec.DecodeAll(data)
	if err != nil {
		return nil, fmt.Errorf("workload spec %s: %v", specFile, err)
	}
	specs := make([]blbp.WorkloadSpec, len(wss))
	for i, ws := range wss {
		if specs[i], err = wspec.Compile(ws); err != nil {
			return nil, fmt.Errorf("workload spec %s: %v", specFile, err)
		}
	}
	return specs, nil
}

// run executes every measurement and assembles the report; with batchOnly
// it runs just the header and the batch section. It returns the report and
// the batch verification lines.
func run(base int64, reps, parallel int, batchOnly bool, specFile string, bo batchOpts) (*Report, []string, error) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	rep := &Report{
		Schema:             "blbp-bench-6",
		GoVersion:          runtime.Version(),
		GOARCH:             runtime.GOARCH,
		NumCPU:             runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		ParallelMeaningful: runtime.GOMAXPROCS(0) > 1,
		Parallel:           parallel,
		Base:               base,
		Reps:               reps,
	}
	if batchOnly {
		checks, err := runBatchSection(rep, reps, bo)
		if err != nil {
			return nil, nil, err
		}
		return rep, checks, nil
	}
	tr := microTrace()
	rep.Results = append(rep.Results,
		measurePredictor("blbp_micro", tr, reps, func() blbp.IndirectPredictor {
			return blbp.NewBLBP(blbp.DefaultBLBPConfig())
		}),
		measurePredictor("ittage_micro", tr, reps, func() blbp.IndirectPredictor {
			return blbp.NewITTAGE(blbp.DefaultITTAGEConfig())
		}),
	)
	engine, err := measureEngine(tr, reps)
	if err != nil {
		return nil, nil, err
	}
	rep.Results = append(rep.Results, engine)

	simRun, err := measureSimRun(tr, reps)
	if err != nil {
		return nil, nil, err
	}
	spill, err := measureSpillDecode(tr, reps)
	if err != nil {
		return nil, nil, err
	}
	rep.Results = append(rep.Results, simRun, spill)

	specs, err := suiteSpecs(base, specFile)
	if err != nil {
		return nil, nil, err
	}
	// The shared cache doubles as the spill-tier seeder: KeepSpill makes
	// its Close flush every built trace into spillDir for the warm
	// measurement below.
	spillDir, err := os.MkdirTemp("", "blbp-bench-spill-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(spillDir)
	cache := tracecache.New(tracecache.Config{SpillDir: spillDir, KeepSpill: true})
	suite, err := measureSuite("suite_pass", specs, cache, 1, reps)
	if err != nil {
		cache.Close()
		return nil, nil, err
	}
	rep.Results = append(rep.Results, suite)
	suitePar, err := measureSuite("suite_pass_parallel", specs, cache, parallel, reps)
	if err != nil {
		cache.Close()
		return nil, nil, err
	}
	rep.Results = append(rep.Results, suitePar)
	cache.Close()
	rep.TraceCache = counters(cache.Stats())

	cold, _, err := measureSuiteStart("suite_pass_cold", specs, suite.Events, reps, func() *tracecache.Cache {
		return tracecache.New(tracecache.Config{})
	})
	if err != nil {
		return nil, nil, err
	}
	rep.Results = append(rep.Results, cold)
	warm, warmStats, err := measureSuiteStart("suite_pass_warm", specs, suite.Events, reps, func() *tracecache.Cache {
		return tracecache.New(tracecache.Config{SpillDir: spillDir, KeepSpill: true})
	})
	if err != nil {
		return nil, nil, err
	}
	rep.Results = append(rep.Results, warm)
	rep.TraceCacheWarm = counters(warmStats)
	if warmStats.Builds != 0 {
		return nil, nil, fmt.Errorf("bench: warm suite pass ran %d generator builds, want 0 (spill errors: %d)",
			warmStats.Builds, warmStats.SpillErrors)
	}
	checks, err := runBatchSection(rep, reps, bo)
	if err != nil {
		return nil, nil, err
	}
	return rep, checks, nil
}

func main() {
	out := flag.String("out", "BENCH_6.json", "output JSON path")
	base := flag.Int64("base", 60_000, "per-workload instruction base for the suite pass")
	reps := flag.Int("reps", 3, "repetitions per measurement (fastest wins)")
	parallel := flag.Int("parallel", 0, "workers for suite_pass_parallel (0 = GOMAXPROCS)")
	batchOnly := flag.Bool("batch", false, "run only the batch-engine measurements")
	batchSizes := flag.String("batchsizes", "1,8,64,256", "batch widths for the serving-rate entries")
	batchShards := flag.String("batchshards", "1,2,4", "shard counts for the full-drain entries")
	batchEvents := flag.Int("batchevents", 2048, "events per stream in the batch workload")
	batchDump := flag.String("batchdump", "", "prefix for batched/serial CSV prediction logs")
	specFile := flag.String("workload-spec", "", "workload spec file (JSON) to benchmark instead of the built-in suite")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()
	if *base <= 0 || *reps <= 0 || *batchEvents <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -base, -reps, and -batchevents must be positive")
		os.Exit(2)
	}
	bo := batchOpts{events: *batchEvents, dump: *batchDump}
	var err error
	if bo.sizes, err = parseIntList("-batchsizes", *batchSizes); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if bo.shards, err = parseIntList("-batchshards", *batchShards); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer func() {
			runtime.GC()
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}
	rep, checks, err := run(*base, *reps, *parallel, *batchOnly, *specFile, bo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, e := range rep.Results {
		fmt.Printf("%-20s %12.0f %s/sec  (%d %s in %.3fs)\n",
			e.Name, e.PerSecond, e.Unit, e.Events, e.Unit, e.Seconds)
	}
	for _, c := range checks {
		fmt.Println(c)
	}
	if !*batchOnly {
		tc := rep.TraceCache
		fmt.Printf("trace cache: %d builds, %d hits, %d misses (%d spill loads, %d evictions)\n",
			tc.Builds, tc.Hits, tc.Misses, tc.SpillLoads, tc.Evictions)
		tw := rep.TraceCacheWarm
		fmt.Printf("warm start:  %d builds, %d preload hits, %d spill errors\n",
			tw.Builds, tw.PreloadHits, tw.SpillErrors)
	}
	if !rep.ParallelMeaningful {
		fmt.Println("note: GOMAXPROCS=1 — parallel and shard entries scale flat (parallel_meaningful=false)")
	}
	fmt.Println("wrote", *out)
}
