// Command blbpsim runs one or more indirect branch predictors over a single
// workload (from the built-in suite) or a trace file, and reports per-class
// misprediction statistics.
//
// Usage:
//
//	blbpsim -workload 400.perlbench-1 [-base N] [-predictors blbp,ittage,btb,vpc]
//	blbpsim -trace file.trc [-predictors ...]
//	blbpsim -workload-spec myspec.json [-predictors ...]
//	blbpsim -workload 403.gcc-1 -config 'blbp={"GlobalTargetBits":0}'
//	blbpsim -list
//
// -config name=JSON (repeatable) overrides fields of the named predictor's
// default configuration; the JSON object merges field-for-field onto the
// default, exactly as a run plan's "config" would (see cmd/experiments).
// -workload-spec compiles a declarative workload spec file (one JSON object
// or an array; see internal/wspec) and simulates it instead of a built-in
// workload — with an array, -workload selects which spec by name.
// -trace reads an SPL3 trace file, as tracegen gen writes it; a file in
// another format, such as one an older tracegen wrote, is refused, and
// tracegen gen reproduces it. -list prints the available workloads and
// every registered predictor with its default-config JSON, the baseline
// the overrides apply to.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"blbp"
	"blbp/internal/predictor"
	"blbp/internal/report"
	"blbp/internal/wspec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "blbpsim: %v\n", err)
		os.Exit(1)
	}
}

// configFlags collects repeated -config name=JSON overrides.
type configFlags map[string]string

func (c configFlags) String() string {
	parts := make([]string, 0, len(c))
	for _, name := range sortedKeys(c) {
		parts = append(parts, name+"="+c[name])
	}
	return strings.Join(parts, " ")
}

// sortedKeys fixes the iteration order everywhere the override set is
// rendered or validated, keeping output and error choice deterministic.
func sortedKeys(c configFlags) []string {
	names := make([]string, 0, len(c))
	//blbp:allow(determinism) collect-then-sort: the sort.Strings below erases the map iteration order
	for name := range c {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (c configFlags) Set(s string) error {
	name, js, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=JSON, got %q", s)
	}
	if _, dup := c[name]; dup {
		return fmt.Errorf("duplicate -config for %q", name)
	}
	c[name] = js
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("blbpsim", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload name from the built-in suite")
	traceFile := fs.String("trace", "", "SPL3 trace file (from tracegen gen) instead of a workload")
	specFile := fs.String("workload-spec", "", "workload spec file (JSON) to compile and simulate instead of a built-in")
	base := fs.Int64("base", 400_000, "instruction base for suite workloads")
	preds := fs.String("predictors", "blbp,ittage,btb,vpc", "comma-separated predictors to run")
	configs := configFlags{}
	fs.Var(configs, "config", "name=JSON config overrides for one predictor (repeatable)")
	list := fs.Bool("list", false, "list available workloads and predictors, then exit")
	snapPath := fs.String("snapshot", "", "pause at -snapat and write a BLBPSNP1 run snapshot to FILE, then exit")
	snapAt := fs.Int("snapat", 0, "record index at which -snapshot pauses the run")
	restorePath := fs.String("restore", "", "resume a run from a snapshot written by -snapshot")
	csvPath := fs.String("csv", "", "also write the result table as CSV to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapPath != "" && *restorePath != "" {
		return fmt.Errorf("use either -snapshot or -restore, not both")
	}
	if *snapAt != 0 && *snapPath == "" {
		return fmt.Errorf("-snapat only applies with -snapshot")
	}

	suites := [][]blbp.WorkloadSpec{blbp.Workloads(*base), blbp.HoldoutWorkloads(*base)}
	if *list {
		fmt.Println("Workloads:")
		for _, suite := range suites {
			for _, s := range suite {
				fmt.Printf("  %-20s %s (%d instructions)\n", s.Name, s.Category, s.Instructions)
			}
		}
		fmt.Println("\nPredictors (-config overrides merge onto the default JSON):")
		for _, e := range predictor.Entries() {
			fmt.Printf("  %-12s %-12s %s\n", e.Name, "("+e.Kind()+")", e.Doc)
			fmt.Printf("  %-12s default: %s\n", "", e.DefaultJSON())
		}
		return nil
	}

	names := make([]string, 0, 4)
	for _, name := range strings.Split(*preds, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	for _, name := range sortedKeys(configs) {
		found := false
		for _, n := range names {
			found = found || n == name
		}
		if !found {
			return fmt.Errorf("-config for %q, but it is not in -predictors %q", name, *preds)
		}
	}

	tr, err := loadTrace(*workloadName, *traceFile, *specFile, suites)
	if err != nil {
		return err
	}

	if *snapPath != "" {
		return snapshotRun(tr, names, configs, *snapPath, *snapAt)
	}

	var results []passResult
	if *restorePath != "" {
		results, err = resumeRun(tr, names, configs, *restorePath)
		if err != nil {
			return err
		}
	} else {
		for _, name := range names {
			res, bits, err := simulateOne(tr, name, []byte(configs[name]))
			if err != nil {
				return err
			}
			results = append(results, passResult{name: name, res: res, bits: bits})
		}
	}

	tb := report.NewTable(
		fmt.Sprintf("Simulation of %s (%d instructions)", tr.Name, tr.Instructions()),
		"predictor", "indirect MPKI", "indirect mis/total", "no-prediction",
		"cond accuracy", "return accuracy", "budget (KB)",
	)
	for _, r := range results {
		addRow(tb, r)
	}
	if err := tb.WriteText(os.Stdout); err != nil {
		return err
	}
	if *csvPath != "" {
		return writeCSV(*csvPath, tb.WriteCSV)
	}
	return nil
}

// passResult is one finished pass's row: rendered identically whether the
// pass ran uninterrupted or was resumed from a snapshot, so restored output
// stays byte-for-byte comparable.
type passResult struct {
	name string
	res  blbp.Result
	bits int
}

func addRow(tb *report.Table, r passResult) {
	returnAcc := 1.0
	if r.res.Returns > 0 {
		returnAcc = 1 - float64(r.res.ReturnMispredicts)/float64(r.res.Returns)
	}
	tb.AddRowf(r.name, r.res.IndirectMPKI(),
		fmt.Sprintf("%d/%d", r.res.IndirectMispredicts, r.res.IndirectBranches),
		r.res.NoPrediction, r.res.CondAccuracy(), returnAcc,
		fmt.Sprintf("%.1f", float64(r.bits)/8192))
}

func loadTrace(workloadName, traceFile, specFile string, suites [][]blbp.WorkloadSpec) (*blbp.Trace, error) {
	switch {
	case specFile != "" && traceFile != "":
		return nil, fmt.Errorf("use either -workload-spec or -trace, not both")
	case specFile != "":
		return specTrace(specFile, workloadName)
	case workloadName != "" && traceFile != "":
		return nil, fmt.Errorf("use either -workload or -trace, not both")
	case traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := blbp.ReadTrace(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", traceFile, err)
		}
		return tr, nil
	case workloadName != "":
		for _, suite := range suites {
			for _, s := range suite {
				if s.Name == workloadName {
					return s.Build(), nil
				}
			}
		}
		return nil, fmt.Errorf("unknown workload %q (try -list)", workloadName)
	default:
		return nil, fmt.Errorf("one of -workload or -trace is required (or -list)")
	}
}

// specTrace compiles a workload spec file into its trace. A file holding
// several specs needs -workload to pick one by name; a single-spec file
// needs no selector.
func specTrace(path, name string) (*blbp.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	specs, err := wspec.DecodeAll(data)
	if err != nil {
		return nil, fmt.Errorf("workload spec %s: %v", path, err)
	}
	var pick *wspec.WorkloadSpec
	switch {
	case name != "":
		for i := range specs {
			if specs[i].Name == name {
				pick = &specs[i]
				break
			}
		}
		if pick == nil {
			return nil, fmt.Errorf("workload spec %s: no spec named %q", path, name)
		}
	case len(specs) == 1:
		pick = &specs[0]
	default:
		return nil, fmt.Errorf("workload spec %s holds %d specs; select one with -workload", path, len(specs))
	}
	s, err := wspec.Compile(*pick)
	if err != nil {
		return nil, fmt.Errorf("workload spec %s: %v", path, err)
	}
	return s.Build(), nil
}

// buildPass constructs a single named predictor pass from its registered
// default configuration plus the given JSON overrides. Cond-bound
// predictors (VPC) share a fresh hashed perceptron; consolidated predictors
// (combined) serve as their own conditional predictor.
func buildPass(name string, overrides []byte) (*pass, error) {
	e, ok := predictor.Lookup(name)
	if !ok {
		_, err := predictor.New(name) // canonical unknown-name error with -list hint
		return nil, err
	}
	cfg, err := e.Config(overrides)
	if err != nil {
		return nil, err
	}
	var (
		cp blbp.ConditionalPredictor
		p  blbp.IndirectPredictor
	)
	switch {
	case e.NewBound != nil:
		hp := blbp.NewHashedPerceptron()
		p, err = e.NewBound(cfg, hp)
		cp = hp
	case e.NewProvider != nil:
		cp, p, err = e.NewProvider(cfg)
	default:
		p, err = e.New(cfg)
		cp = blbp.NewHashedPerceptron()
	}
	if err != nil {
		return nil, err
	}
	bits := p.StorageBits()
	if e.NewProvider != nil {
		bits = cp.StorageBits() // the consolidated structure is the budget
	}
	return &pass{cp: cp, p: p, bits: bits}, nil
}

// simulateOne runs a single named predictor over the whole trace.
func simulateOne(tr *blbp.Trace, name string, overrides []byte) (blbp.Result, int, error) {
	ps, err := buildPass(name, overrides)
	if err != nil {
		return blbp.Result{}, 0, err
	}
	res, err := blbp.SimulateWith(tr, ps.cp, []blbp.IndirectPredictor{ps.p}, blbp.SimOptions{})
	if err != nil {
		return blbp.Result{}, 0, err
	}
	return res[0], ps.bits, nil
}
