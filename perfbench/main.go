// Command perfbench is the repository's end-to-end benchmark. It runs the
// paper's traffic — the CBP-5-style suite runs behind `make results` and
// the multi-stream batch path — through the same public entry points
// cmd/experiments and the batch engine use, checks every output, and
// reports end-to-end metrics with tracing off. A separate traced run times
// the calls into each layer's public functions from outside and builds a
// stage ledger that adds up to the traced wall time.
//
// One workload per process (the form BENCHMARK.json names):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// prints one JSON line last: {"correct", "attempted", "failed", "metrics"},
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1. Every workload at once, one child process at a time:
//
//	perfbench -out FILE [-runs N] [-seed N]
//
// and the interleaved A/B mode and its comparison (see ab.go):
//
//	perfbench ab -a BIN -b BIN -pairs N -outa A.json -outb B.json
//	perfbench compare A.json B.json
//
// Run it from the repository root (it reads results/ and BENCHMARK.json
// there); perfbench/run.sh builds the binary and does so.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

const (
	// defaultSeed selects the committed draw: suite salt "" and the batch
	// stream seed cmd/bench uses, so outputs must match results/.
	defaultSeed = 1
	// committedBase is the instruction base results/*.csv were made at.
	committedBase = 600_000
	// serveRounds and serveEvents size a batch_serve repetition: rounds
	// per repetition and events per stream.
	serveRounds = 40
	serveEvents = 4096
)

// options configures one worker process. The command line sets the
// workload, seed, seconds, trace, reps and report; the smoke tests shrink
// the rest.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	reps     int // fixed repetition count; 0 fills --seconds
	base     int64
	root     string // repository root: results/ lives here
	expect   string // directory of expected CSVs, overriding results/
	rounds   int    // batch_serve rounds per repetition
	events   int    // batch_serve events per stream
	report   string // detailed JSON report path
}

// salt is the suite salt the seed selects.
func (o *options) salt() string {
	if o.seed == defaultSeed {
		return ""
	}
	return fmt.Sprintf("seed%d", o.seed)
}

// expectDir is where a workload's expected CSVs come from: an explicit
// -expect directory, else results/ when the run reproduces the committed
// draw. Empty means each repetition must match the first.
func (o *options) expectDir() string {
	if o.expect != "" {
		return o.expect
	}
	if o.seed == defaultSeed && o.base == committedBase {
		return filepath.Join(o.root, "results")
	}
	return ""
}

// checks counts correctness operations and their failures.
type checks struct {
	attempted, failed int
	firstFailure      string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if c.firstFailure == "" {
			c.firstFailure = fmt.Sprintf(format, args...)
		}
	}
}

// bench is one workload's implementation.
type bench interface {
	// setup prepares the workload's inputs from scratch; the harness runs
	// and times it before every repetition.
	setup() error
	// rep runs and checks one untraced repetition.
	rep() (sample, error)
	// traced runs one traced repetition and returns its wall time.
	traced(l *ledger) (int64, error)
	// extra returns workload-specific detail for the report.
	extra() map[string]any
	checks() *checks
	close()
}

// workloadDef is one benchmark workload; BENCHMARK.json says why each
// was chosen.
type workloadDef struct {
	name string
	make func(o *options) bench
}

var workloads = []workloadDef{
	{"headline_cold", func(o *options) bench { return newPlanBench(o, modeCold) }},
	{"headline_warm", func(o *options) bench { return newPlanBench(o, modeWarm) }},
	{"ablation_hot", func(o *options) bench { return newPlanBench(o, modeHot) }},
	{"batch_serve", func(o *options) bench { return newServeBench(o) }},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// line is the contract's last stdout line.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workerReport is the detailed record of one worker run.
type workerReport struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Trace        bool               `json:"trace"`
	Base         int64              `json:"base"`
	Fingerprint  fingerprint        `json:"fingerprint"`
	SetupS       summary            `json:"setup_s"`
	Samples      []sample           `json:"samples"`
	Summaries    map[string]summary `json:"summaries,omitempty"`
	FirstFailure string             `json:"first_failure,omitempty"`
	Ledger       map[string]float64 `json:"ledger_s,omitempty"`
	Spans        []span             `json:"spans,omitempty"`
	Extra        map[string]any     `json:"extra,omitempty"`
	Line         line               `json:"line"`
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "ab":
			os.Exit(runAB(args[1:]))
		case "compare":
			os.Exit(runCompare(args[1:]))
		}
	}
	os.Exit(runMain(args))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{base: committedBase, root: ".", rounds: serveRounds, events: serveEvents}
	fs.StringVar(&o.workload, "workload", "", "run this one workload (else every workload, one child process each)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed: suite salt and batch stream seed (1 reproduces results/)")
	fs.Float64Var(&o.seconds, "seconds", 25, "measure for about this many seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced repetition and reports per-layer metrics")
	fs.IntVar(&o.reps, "reps", 0, "fixed number of timed repetitions (0 fills -seconds)")
	fs.StringVar(&o.report, "report", "", "write the detailed JSON report here")
	out := fs.String("out", "", "orchestrator: write the combined report of every workload here")
	runs := fs.Int("runs", 1, "orchestrator: untraced runs per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag != 0
	if o.workload == "" {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "perfbench: need --workload or -out")
			return 2
		}
		return orchestrate(o, *out, *runs)
	}
	rep, err := runWorker(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.report != "" {
		if err := writeJSON(o.report, rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if rep.FirstFailure != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s: first failed check: %s\n", o.workload, rep.FirstFailure)
	}
	b, err := json.Marshal(rep.Line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// runWorker measures one workload and assembles its report. Every
// repetition runs right after its own set-up, so the set-up samples span
// the same stretch of host noise as the repetitions.
func runWorker(o *options) (*workerReport, error) {
	def, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload (have %s)", strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	b := def.make(o)
	defer b.close()
	rep := &workerReport{Workload: o.workload, Seed: o.seed, Trace: o.trace, Base: o.base, Fingerprint: machineFingerprint()}

	var setups, cycles []float64
	// cycle runs and times one set-up, then runs the repetition f. A
	// collection first gives the set-up, like the repetition, a heap whose
	// free pages are still resident: headline_cold's set-up of about a
	// millisecond doubles when its allocations fault in pages the runtime
	// has returned to the OS (a fault costs microseconds in a virtual
	// machine).
	cycle := func(f func() error) error {
		t0 := time.Now()
		runtime.GC()
		t1 := time.Now()
		if err := b.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t1).Seconds())
		err := f()
		cycles = append(cycles, time.Since(t0).Seconds())
		return err
	}
	start := time.Now()
	// more reports whether another cycle fits: a fixed -reps count, else
	// the time so far plus the median cycle.
	more := func() bool {
		switch {
		case len(cycles) == 0:
			return true
		case o.reps > 0:
			return len(cycles) < o.reps
		}
		return time.Since(start).Seconds()+medianOf(cycles) <= o.seconds
	}

	m := map[string]float64{}
	if !o.trace {
		for more() {
			if err := cycle(func() error {
				s, err := b.rep()
				rep.Samples = append(rep.Samples, s)
				return err
			}); err != nil {
				return nil, err
			}
		}
		rep.SetupS = summarize(setups)
		e2e(rep, m)
	} else {
		// Each cycle runs an untraced repetition, the reference the traced
		// one after it is checked against, then the traced one; the
		// interleaved pairs give bench.trace_overhead.
		clk := calibrate()
		var runs []tracedRun
		for more() {
			if err := cycle(func() error {
				s, err := b.rep()
				rep.Samples = append(rep.Samples, s)
				if err != nil {
					return err
				}
				r, err := traceRep(b, clk)
				runs = append(runs, r)
				return err
			}); err != nil {
				return nil, err
			}
		}
		rep.SetupS = summarize(setups)
		var refs []float64
		for _, s := range rep.Samples {
			refs = append(refs, s.Wall)
		}
		ledgerMetrics(b, rep, m, runs, medianOf(refs))
	}
	rep.Extra = b.extra()
	c := b.checks()
	rep.FirstFailure = c.firstFailure
	rep.Line = line{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}}
	// A layer the workload never enters reads 0; every end-to-end metric
	// is measured on every workload.
	defs := layerMetrics
	if !o.trace {
		defs = e2eMetrics
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok && !o.trace {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Line.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return rep, nil
}

// e2e fills the end-to-end metrics from the untraced repetitions.
func e2e(rep *workerReport, m map[string]float64) {
	var walls, cpus, allocs []float64
	for _, s := range rep.Samples {
		walls = append(walls, s.Wall)
		cpus = append(cpus, s.CPU)
		allocs = append(allocs, s.AllocMB)
	}
	rep.Summaries = map[string]summary{"wall_s": summarize(walls), "cpu_s": summarize(cpus), "alloc_mb": summarize(allocs)}
	m["setup_s"] = rep.SetupS.Median
	m["alloc_mb"] = rep.Summaries["alloc_mb"].Median
	m["peak_rss_mb"] = peakRSSMB()
}

// tracedRun is one traced repetition.
type tracedRun struct {
	l    *ledger
	rt   runtimeDelta
	wall float64 // ns
}

func traceRep(b bench, clk clock) (tracedRun, error) {
	l := newLedger(clk)
	runtime.GC()
	r0 := readRuntime()
	wall, err := b.traced(l)
	return tracedRun{l, readRuntime().minus(r0), float64(wall)}, err
}

// ledgerMetrics reports the ledger of the median traced repetition; ref is
// the median untraced wall time.
func ledgerMetrics(b bench, rep *workerReport, m map[string]float64, runs []tracedRun, ref float64) {
	sort.Slice(runs, func(i, j int) bool { return runs[i].wall < runs[j].wall })
	r := runs[(len(runs)-1)/2]
	l, wall := r.l, r.wall
	ns := l.stageNs()
	rep.Ledger = map[string]float64{}
	sum := 0.0
	for st := stage(0); st < numStages; st++ {
		m[stageNames[st]+"_frac"] = ns[st] / wall
		rep.Ledger[stageNames[st]] = ns[st] / 1e9
		sum += ns[st]
	}
	m["bench.stage_sum_frac"] = sum / wall
	m["bench.traced_wall_s"] = wall / 1e9
	m["bench.trace_overhead"] = wall/1e9/ref - 1
	m["experiments.tasks"] = float64(l.tasks)
	m["experiments.task_max_frac"] = float64(l.taskMaxNs) / wall
	if l.ingestRecords > 0 {
		m["ind.span_frac"] = float64(l.spanRecords) / float64(l.ingestRecords)
	}
	m["workload.build_alloc_mb"] = l.allocs[stBuild] / (1 << 20)
	m["blbp.construct_alloc_mb"] = l.allocs[stBLBPConstruct] / (1 << 20)
	m["ittage.construct_alloc_mb"] = l.allocs[stITTAGEConstruct] / (1 << 20)
	m["btb.construct_alloc_mb"] = l.allocs[stBTBConstruct] / (1 << 20)
	m["runtime.gc_cycles"] = r.rt.gcCycles
	m["runtime.gc_pause_frac"] = r.rt.pauseNs / wall
	m["runtime.gc_cpu_frac"] = r.rt.gcCPUFrac()
	m["runtime.alloc_mb"] = r.rt.allocBytes / (1 << 20)
	for k, v := range l.layers {
		m[k] = v
	}
	// The frames cover every call into the layers, leaving only the
	// benchmark's own loop outside, so the rows must add up to the wall.
	b.checks().check(sum >= 0.95*wall && sum <= 1.05*wall, "ledger rows add up to %.3f of the traced wall", sum/wall)
	rep.Spans = l.spans
}

// metricDef names one emitted metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are emitted under --trace 0, layerMetrics under --trace 1;
// BENCHMARK.json lists the same names and units (bench_test.go checks it).
// The repetition timings wall_s and cpu_s stay in the detailed report: see
// pairedOnly for why they are no end-to-end metric.
var (
	e2eMetrics   = []metricDef{{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"alloc_mb", "MB"}}
	layerMetrics = func() []metricDef {
		var ms []metricDef
		for _, n := range stageNames {
			ms = append(ms, metricDef{n + "_frac", "ratio"})
		}
		for _, n := range []string{
			"bench.stage_sum_frac", "bench.trace_overhead", "experiments.task_max_frac", "ind.span_frac",
			"runtime.gc_pause_frac", "runtime.gc_cpu_frac", "tracecache.flush_encode_share",
			"sim.records_per_segment", "batch.fill", "batch.predict_share", "batch.update_share", "batch.ingest_share",
		} {
			ms = append(ms, metricDef{n, "ratio"})
		}
		for _, n := range []string{
			"experiments.tasks", "runtime.gc_cycles", "workload.builds", "tracecache.spill_loads",
			"tracecache.spill_errors", "cond.mispredicts", "blbp.predictions", "blbp.mispredicts",
			"ittage.predictions", "ittage.mispredicts", "btb.predictions", "btb.mispredicts",
		} {
			ms = append(ms, metricDef{n, "count"})
		}
		for _, n := range []string{
			"workload.build_alloc_mb", "blbp.construct_alloc_mb", "ittage.construct_alloc_mb", "btb.construct_alloc_mb",
			"runtime.alloc_mb", "tracecache.live_mb", "tracecache.spill_read_mb", "tracecache.spill_written_mb",
		} {
			ms = append(ms, metricDef{n, "MB"})
		}
		return append(ms, metricDef{"bench.traced_wall_s", "s"}, metricDef{"batch.single_stream_mpps", "M/s"})
	}()
)

// runtimeDelta is the Go runtime's activity over a traced repetition.
type runtimeDelta struct {
	gcCycles, pauseNs, allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeDelta{
		gcCycles: float64(ms.NumGC), pauseNs: float64(ms.PauseTotalNs), allocBytes: float64(ms.TotalAlloc),
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
	}
}

func (r runtimeDelta) minus(o runtimeDelta) runtimeDelta {
	return runtimeDelta{r.gcCycles - o.gcCycles, r.pauseNs - o.pauseNs, r.allocBytes - o.allocBytes,
		r.gcCPU - o.gcCPU, r.totalCPU - o.totalCPU}
}

func (r runtimeDelta) gcCPUFrac() float64 {
	if r.totalCPU <= 0 {
		return 0
	}
	return r.gcCPU / r.totalCPU
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
