// Command tracegen generates synthetic branch traces from the built-in
// workload suite and inspects trace files.
//
// Usage:
//
//	tracegen gen -workload 252.eon -out eon.trc [-base N]
//	tracegen gen -all -dir traces/ [-base N]
//	tracegen gen -spec specs.json -dir traces/
//	tracegen inspect file.trc
//	tracegen dumpspec [-base N] 252.eon
//	tracegen list
//
// gen writes each trace as an SPL3 file (internal/trace) whose header is
// the spec's full identity: name, seed, instruction budget and parameter
// fingerprint. blbpsim -trace simulates such a file, a "replay" workload
// spec names it, and a trace cache whose spill directory holds it (under
// the cache's .blbptrc extension) serves it without running the generator.
// gen -spec compiles every declarative workload spec in the JSON file (one
// object or an array; see internal/wspec) and writes each spec's trace to
// -dir (or a single spec to -out). inspect prints a trace file's branch
// mix; it refuses a file in another format, such as one an older tracegen
// wrote, which gen reproduces. dumpspec prints a built-in workload as the
// equivalent spec JSON — the starting point for authoring variants.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"blbp"
	"blbp/internal/report"
	"blbp/internal/trace"
	"blbp/internal/wspec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: tracegen <gen|inspect|dumpspec|list> [flags]")
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:])
	case "inspect":
		return runInspect(args[1:])
	case "dumpspec":
		return runDumpSpec(args[1:])
	case "list":
		for _, s := range blbp.Workloads(0) {
			fmt.Printf("%-20s %s\n", s.Name, s.Category)
		}
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to generate")
	all := fs.Bool("all", false, "generate the full 88-workload suite")
	specFile := fs.String("spec", "", "workload spec file (JSON) to compile instead of built-ins")
	out := fs.String("out", "", "output file (single workload)")
	dir := fs.String("dir", "traces", "output directory (with -all or a multi-spec file)")
	base := fs.Int64("base", 400_000, "instruction base")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specFile != "" {
		if *all || *workloadName != "" {
			return fmt.Errorf("-spec replaces the built-in suite; drop -all/-workload")
		}
		return genFromSpecs(*specFile, *out, *dir)
	}
	suite := blbp.Workloads(*base)
	if *all {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return err
		}
		for _, s := range suite {
			path := filepath.Join(*dir, s.Name+".trc")
			if err := writeSpec(s, path); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
		return nil
	}
	if *workloadName == "" {
		return fmt.Errorf("-workload or -all is required")
	}
	for _, s := range suite {
		if s.Name == *workloadName {
			path := *out
			if path == "" {
				path = s.Name + ".trc"
			}
			if err := writeSpec(s, path); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q", *workloadName)
}

// genFromSpecs compiles every workload spec in the file and writes each
// trace. A single spec honors -out; otherwise files land in dir as
// <name>.trc.
func genFromSpecs(specFile, out, dir string) error {
	data, err := os.ReadFile(specFile)
	if err != nil {
		return err
	}
	wss, err := wspec.DecodeAll(data)
	if err != nil {
		return fmt.Errorf("workload spec %s: %v", specFile, err)
	}
	if out != "" && len(wss) != 1 {
		return fmt.Errorf("-out needs a single-spec file; %s holds %d (use -dir)", specFile, len(wss))
	}
	if out == "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	for _, ws := range wss {
		s, err := wspec.Compile(ws)
		if err != nil {
			return fmt.Errorf("workload spec %s: %v", specFile, err)
		}
		path := out
		if path == "" {
			path = filepath.Join(dir, s.Name+".trc")
		}
		if err := writeSpec(s, path); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// runDumpSpec prints a built-in workload as its declarative spec JSON.
func runDumpSpec(args []string) error {
	fs := flag.NewFlagSet("dumpspec", flag.ContinueOnError)
	base := fs.Int64("base", 400_000, "instruction base")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tracegen dumpspec [-base N] <workload>")
	}
	ws, ok := wspec.Lookup(fs.Arg(0), *base)
	if !ok {
		return fmt.Errorf("unknown workload %q (try list)", fs.Arg(0))
	}
	out, err := ws.Encode()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(out)
	return err
}

// writeSpec builds s's trace and writes it to path under s's identity. The
// trace is built before the file is created, so a build that fails leaves
// no empty file.
func writeSpec(s blbp.WorkloadSpec, path string) error {
	tr := s.Build()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteSpillColumns(f, s.Identity().SpillHeader(), tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runInspect(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: tracegen inspect <file>")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := blbp.ReadTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	st := blbp.AnalyzeTrace(tr)
	tb := report.NewTable(
		fmt.Sprintf("Trace %s: %d instructions, %d branch records", tr.Name, st.Instructions, tr.Len()),
		"metric", "value",
	)
	for _, bt := range []blbp.BranchType{
		blbp.CondDirect, blbp.UncondDirect, blbp.DirectCall,
		blbp.IndirectJump, blbp.IndirectCall, blbp.Return,
	} {
		tb.AddRowf(bt.String()+" per kilo-instruction", st.PerKilo(bt))
	}
	tb.AddRowf("static indirect sites", st.StaticIndirectSites())
	tb.AddRowf("polymorphic fraction (dynamic)", st.PolymorphicFraction())
	tb.AddRowf("max targets at one site", st.MaxTargets())
	return tb.WriteText(os.Stdout)
}
