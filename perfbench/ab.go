package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runReport is a set of worker runs: what the orchestrator and ab write and
// what compare reads.
type runReport struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        int64       `json:"seed"`
	Binary      string      `json:"binary,omitempty"`
	Runs        []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string        `json:"workload"`
	Trace    bool          `json:"trace"`
	Pair     int           `json:"pair"` // ab pair index; -1 outside ab
	Line     line          `json:"line"`
	Report   *workerReport `json:"report,omitempty"`
}

// child runs one worker process of bin in the current directory and
// returns its record. The caller waits for it to exit; children never
// overlap.
func child(bin, workload string, trace bool, pair int, args []string, reportPath string) (runRecord, error) {
	rec := runRecord{Workload: workload, Trace: trace, Pair: pair}
	t := "0"
	if trace {
		t = "1"
	}
	full := append([]string{"--workload", workload, "--trace", t}, args...)
	if reportPath != "" {
		full = append(full, "-report", reportPath)
		os.Remove(reportPath)
	}
	cmd := exec.Command(bin, full...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return rec, fmt.Errorf("%s %s: %w", bin, strings.Join(full, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Line); err != nil {
		return rec, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if reportPath != "" {
		rec.Report = &workerReport{}
		if err := readJSON(reportPath, rec.Report); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// orchestrate runs every workload in its own child process, one at a
// time: runs untraced children of 5 repetitions (4 for ablation_hot, or
// -reps), then one traced cycle.
func orchestrate(o *options, out string, runs int) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bin, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp("", "perfbench-report-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	rep := runReport{Fingerprint: machineFingerprint(), Seed: o.seed}
	reportPath := filepath.Join(tmp, "worker.json")
	args := func(reps int) []string {
		return []string{"--seed", strconv.FormatInt(o.seed, 10), "-reps", strconv.Itoa(reps)}
	}
	for _, w := range workloadNames() {
		reps := 5
		switch {
		case o.reps > 0:
			reps = o.reps
		case w == "ablation_hot":
			reps = 4
		}
		for i := 0; i < runs; i++ {
			rec, err := child(bin, w, false, -1, args(reps), reportPath)
			if err != nil {
				return fail(err)
			}
			rep.Runs = append(rep.Runs, rec)
		}
		rec, err := child(bin, w, true, -1, args(1), reportPath)
		if err != nil {
			return fail(err)
		}
		rep.Runs = append(rep.Runs, rec)
	}
	if err := writeJSON(out, rep); err != nil {
		return fail(err)
	}
	printSummary(rep)
	fmt.Println("wrote", out)
	for _, r := range rep.Runs {
		if !r.Line.Correct {
			return 1
		}
	}
	return 0
}

// printSummary prints every run's metrics, leaving out the layers a
// workload never enters.
func printSummary(rep runReport) {
	for _, r := range rep.Runs {
		fmt.Printf("%-14s trace=%-5t correct=%t (%d/%d checks failed)\n", r.Workload, r.Trace, r.Line.Correct, r.Line.Failed, r.Line.Attempted)
		for _, name := range sortedKeys(r.Line.Metrics) {
			m := r.Line.Metrics[name]
			if r.Trace && m.Value == 0 {
				continue
			}
			fmt.Printf("    %-32s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
}

// runAB alternates two benchmark binaries in pairs, both run from the
// current directory for BENCHMARK.json's run_seconds: pair i runs each
// workload on A then B when i is even, B then A when odd.
func runAB(args []string) int {
	fs := flag.NewFlagSet("perfbench ab", flag.ContinueOnError)
	a := fs.String("a", "", "benchmark binary A (the parent)")
	b := fs.String("b", "", "benchmark binary B (the change)")
	pairs := fs.Int("pairs", 10, "pairs to run")
	list := fs.String("workloads", "", "comma-separated workloads (default all)")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	outa := fs.String("outa", "", "write the report of A's runs here")
	outb := fs.String("outb", "", "write the report of B's runs here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench ab:", err)
		return 2
	}
	if *a == "" || *b == "" || *outa == "" || *outb == "" || *pairs < 1 {
		return usage(fmt.Errorf("need -a, -b, -outa, -outb and -pairs >= 1"))
	}
	var spec benchSpec
	if err := readJSON(specFile, &spec); err != nil {
		return usage(err)
	}
	names := workloadNames()
	if *list != "" {
		names = strings.Split(*list, ",")
		for _, n := range names {
			if _, ok := lookupWorkload(n); !ok {
				return usage(fmt.Errorf("unknown workload %q", n))
			}
		}
	}
	sides := []struct {
		out string
		rep runReport
	}{{out: *outa}, {out: *outb}}
	for i, bin := range []string{*a, *b} {
		abs, err := filepath.Abs(bin)
		if err != nil {
			return usage(err)
		}
		sides[i].rep = runReport{Fingerprint: machineFingerprint(), Seed: *seed, Binary: abs}
	}
	tmp, err := os.MkdirTemp("", "perfbench-ab-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench ab:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	reportPath := filepath.Join(tmp, "worker.json")
	runArgs := []string{"--seed", strconv.FormatInt(*seed, 10), "--seconds", strconv.Itoa(spec.RunSeconds)}
	for p := 0; p < *pairs; p++ {
		for _, w := range names {
			for k := 0; k < 2; k++ {
				sd := &sides[(k+p)%2]
				rec, err := child(sd.rep.Binary, w, false, p, runArgs, reportPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench ab:", err)
					return 1
				}
				sd.rep.Runs = append(sd.rep.Runs, rec)
			}
		}
	}
	for _, sd := range sides {
		if err := writeJSON(sd.out, sd.rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench ab:", err)
			return 1
		}
	}
	fmt.Printf("wrote %s and %s; compare them with: perfbench compare %s %s\n", *outa, *outb, *outa, *outb)
	return 0
}

// specFile is the benchmark definition ab and compare read, relative to
// the repository root they run from.
const specFile = "BENCHMARK.json"

// setupFloorS is the absolute part of setup_s's bound: a set-up may get
// slower by its bound's share of the parent's median or by this many
// seconds, whichever is larger. BENCHMARK.json holds only the share.
const setupFloorS = 0.3

// benchSpec is the part of BENCHMARK.json ab and compare need.
type benchSpec struct {
	RunSeconds int             `json:"run_seconds"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// pairedOnly are the repetition timings BENCHMARK.json leaves out: on a
// shared host their medians drift by more than 10% between two sets of runs
// minutes apart, so no bound on them holds from one set to the next. Runs
// that alternate two builds (ab) see the same drift on both sides, so
// compare sets these side by side too, read from the worker reports.
var pairedOnly = []boundedMetric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.08},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.08},
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// runCompare sets report B (the change) against report A (the parent):
// per (workload, metric) medians and quartiles, B's pair win fraction, and
// a verdict against the bounds in BENCHMARK.json.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	var a, b runReport
	var spec benchSpec
	for _, f := range []struct {
		path string
		v    any
	}{{args[0], &a}, {args[1], &b}, {specFile, &spec}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	if a.Fingerprint != b.Fingerprint {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare runs from different machines:\n  A: %+v\n  B: %+v\n", a.Fingerprint, b.Fingerprint)
		return 2
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare seed %d with seed %d\n", a.Seed, b.Seed)
		return 2
	}
	fmt.Printf("%-14s %-12s %28s %28s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "wins", "verdict")
	for _, w := range workloadNames() {
		for _, m := range append(spec.EndToEnd, pairedOnly...) {
			va, pa := values(a, w, m.Name)
			vb, pb := values(b, w, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			floor := 0.0
			if m.Name == "setup_s" {
				floor = setupFloorS
			}
			c := verdict(va, vb, pa, pb, m.Better == "higher", m.Bound, floor)
			sa, sb := summarize(va), summarize(vb)
			wins := "-"
			if !math.IsNaN(c.wins) {
				wins = fmt.Sprintf("%.2f", c.wins)
			}
			fmt.Printf("%-14s %-12s %28s %28s %+7.1f%% %6s  %s\n", w, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", sa.Median, sa.Q1, sa.Q3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", sb.Median, sb.Q1, sb.Q3),
				100*(sb.Median-sa.Median)/sa.Median, wins, c.verdict)
		}
	}
	for _, r := range append(append([]runRecord(nil), a.Runs...), b.Runs...) {
		if !r.Line.Correct {
			fmt.Printf("note: a %s run failed %d of %d checks\n", r.Workload, r.Line.Failed, r.Line.Attempted)
		}
	}
	return 0
}

// values returns a report's untraced values of one metric on one workload
// and the pair index of each: from the result line, else the median the
// run's worker report holds.
func values(r runReport, workload, name string) ([]float64, []int) {
	var vs []float64
	var pairs []int
	for _, run := range r.Runs {
		if run.Workload != workload || run.Trace {
			continue
		}
		m, ok := run.Line.Metrics[name]
		v := m.Value
		if !ok && run.Report != nil {
			var s summary
			s, ok = run.Report.Summaries[name]
			v = s.Median
		}
		if ok {
			vs = append(vs, v)
			pairs = append(pairs, run.Pair)
		}
	}
	return vs, pairs
}

type comparison struct {
	wins    float64 // share of pairs B won, ties counting for neither; NaN without pairs
	verdict string
}

// verdict applies the benchmark's acceptance rule. The limit is the
// bound's share of A's median, or floor (in the metric's unit) when that is
// larger. B is better when it wins at least nine tenths of at least ten
// pairs and the medians differ by more than A's quartile spread; it is
// worse when its median got worse than A's by more than the limit, however
// wide the spread. Otherwise a metric whose A spread exceeds the limit is
// unresolved, unless every B run beats every A run, and the rest are
// unchanged.
func verdict(a, b []float64, pa, pb []int, higherBetter bool, bound, floor float64) comparison {
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	sa, sb := summarize(a), summarize(b)
	c := comparison{wins: math.NaN()}
	byPair := map[int]float64{}
	for i, p := range pa {
		if p >= 0 {
			byPair[p] = a[i]
		}
	}
	won, paired := 0, 0
	for i, p := range pb {
		if av, ok := byPair[p]; ok && p >= 0 {
			paired++
			if better(b[i], av) {
				won++
			}
		}
	}
	if paired > 0 {
		c.wins = float64(won) / float64(paired)
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := sa.Q3 - sa.Q1
	limit := max(bound*sa.Median, floor)
	worse := sb.Median - sa.Median
	if higherBetter {
		worse = -worse
	}
	switch {
	case paired >= 10 && c.wins >= 0.9 && better(sb.Median, sa.Median) && math.Abs(sb.Median-sa.Median) > spread:
		c.verdict = "better"
	case worse > limit:
		c.verdict = "worse"
	case spread > limit && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}
