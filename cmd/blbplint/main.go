// Command blbplint is the multichecker for the BLBP invariant analyzers
// (internal/analysis): determinism, hwbudget, satweights, atomics, and
// hotalloc. It loads the requested packages with full type information and
// prints one line per finding:
//
//	file:line:col: analyzer: message
//
// The exit status is 1 if any unsuppressed finding (or exceptions-file
// drift) is reported, 2 on a usage or load error. With -suppressed,
// findings silenced by //blbp:allow comments are listed too (tagged
// "suppressed"), so ANALYSIS_EXCEPTIONS.md can be audited against the
// live set; suppressed findings never affect the exit status.
//
// Usage:
//
//	blbplint [flags] [packages]
//
// Flags:
//
//	-suppressed       also list suppressed findings
//	-dir root         directory to resolve package patterns from
//	-jsonout file     also write the machine-readable report (see
//	                  analysis.JSONReport; paths relative to -dir) to file
//	-exceptions file  cross-check ANALYSIS_EXCEPTIONS.md against the live
//	                  suppressions and fail on drift
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"blbp/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("blbplint", flag.ContinueOnError)
	showSuppressed := fs.Bool("suppressed", false, "also list findings silenced by //blbp:allow comments")
	dir := fs.String("dir", ".", "directory to resolve package patterns from")
	jsonFile := fs.String("jsonout", "", "also write the JSON report to this file")
	exceptions := fs.String("exceptions", "", "cross-check this ANALYSIS_EXCEPTIONS.md against the live suppressions")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has printed the error and usage
	}

	prog, err := analysis.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, err := analysis.Run(prog, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	analysis.SortDiagnostics(diags)

	if *jsonFile != "" {
		rep, err := analysis.Report(diags, *dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := os.WriteFile(*jsonFile, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	failed := false
	for _, d := range diags {
		if d.Suppressed {
			if *showSuppressed {
				fmt.Fprintf(out, "%s (suppressed)\n", d)
			}
			continue
		}
		failed = true
		fmt.Fprintln(out, d)
	}

	if *exceptions != "" {
		entries, err := analysis.ParseExceptions(*exceptions)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		for _, p := range analysis.CheckExceptions(entries, diags) {
			fmt.Fprintln(out, p)
			failed = true
		}
	}

	if failed {
		return 1
	}
	return 0
}
