// Command blbplint is the multichecker for the BLBP invariant analyzers
// (internal/analysis): determinism, hwbudget, satweights, atomics, and
// hotalloc. It loads the requested packages with full type information and
// prints one line per finding:
//
//	file:line:col: analyzer: message
//
// The exit status is 1 if any unsuppressed finding (or exceptions-file
// drift) is reported, 2 on a usage, load or apply error. With -suppressed,
// findings silenced by //blbp:allow comments are listed too (tagged
// "suppressed"), so ANALYSIS_EXCEPTIONS.md can be audited against the
// live set; suppressed findings never affect the exit status.
//
// Usage:
//
//	blbplint [flags] [packages]
//	blbplint -aspath <importpath> <dir>
//
// Flags:
//
//	-suppressed       also list suppressed findings
//	-dir root         directory to resolve package patterns from
//	-tests            include each package's in-package _test.go files
//	-aspath path      load the single directory operand as this import
//	                  path (places fixtures inside analyzer scopes)
//	-scope name=a,b   override one analyzer's package-suffix scope
//	                  (repeatable; "all" disables scoping for it; an
//	                  unknown analyzer name is a usage error)
//	-json             print the machine-readable report (see
//	                  analysis.JSONReport) instead of text
//	-jsonout file     additionally write the JSON report to file
//	-fix              apply suggested fixes to the source files
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
	"strings"

	"blbp/internal/analysis"
)

// scopeFlag accumulates repeated -scope name=suffix1,suffix2 overrides.
type scopeFlag struct {
	m map[string][]string
}

func (s *scopeFlag) String() string {
	var parts []string
	for name, list := range s.m {
		parts = append(parts, name+"="+strings.Join(list, ","))
	}
	return strings.Join(parts, " ")
}

func (s *scopeFlag) Set(v string) error {
	name, list, ok := strings.Cut(v, "=")
	if !ok || name == "" || list == "" {
		return fmt.Errorf("want -scope analyzer=suffix1,suffix2, got %q", v)
	}
	var known []string
	for _, a := range analysis.All() {
		if a.Name == name {
			s.m[name] = strings.Split(list, ",")
			return nil
		}
		known = append(known, a.Name)
	}
	return fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("blbplint", flag.ContinueOnError)
	showSuppressed := fs.Bool("suppressed", false, "also list findings silenced by //blbp:allow comments")
	dir := fs.String("dir", ".", "directory to resolve package patterns from")
	tests := fs.Bool("tests", false, "include each package's in-package _test.go files")
	asPath := fs.String("aspath", "", "load the single directory operand as this import path")
	jsonOut := fs.Bool("json", false, "print the machine-readable findings report instead of text")
	jsonFile := fs.String("jsonout", "", "write the JSON report to this file as well")
	fix := fs.Bool("fix", false, "apply suggested fixes to the source files")
	exceptions := fs.String("exceptions", "", "cross-check this ANALYSIS_EXCEPTIONS.md against the live suppressions")
	scopes := scopeFlag{m: map[string][]string{}}
	fs.Var(&scopes, "scope", "override an analyzer's package scope: name=suffix1,suffix2 (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has printed the error and usage
	}

	var (
		prog *analysis.Program
		err  error
	)
	if *asPath != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "blbplint: -aspath takes exactly one directory operand")
			return 2
		}
		prog, err = analysis.LoadDir(fs.Arg(0), *asPath)
	} else {
		prog, err = analysis.LoadWith(analysis.LoadOptions{Tests: *tests}, *dir, fs.Args()...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	prog.Scopes = scopes.m

	diags, err := analysis.Run(prog, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	analysis.SortDiagnostics(diags)

	if *fix {
		applied, err := analysis.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(out, "applied %d fixes\n", applied)
		// Applied findings refer to pre-fix source; keep only what a
		// re-lint would still see.
		var rest []analysis.Diagnostic
		for _, d := range diags {
			if d.Fix == nil || d.Suppressed {
				rest = append(rest, d)
			}
		}
		diags = rest
	}

	if *jsonFile != "" || *jsonOut {
		rep := analysis.Report(diags)
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		data = append(data, '\n')
		if *jsonOut {
			out.Write(data)
		}
		if *jsonFile != "" {
			if err := os.WriteFile(*jsonFile, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
	}

	failed := false
	for _, d := range diags {
		if d.Suppressed {
			if *showSuppressed && !*jsonOut {
				fmt.Fprintf(out, "%s (suppressed)\n", d)
			}
			continue
		}
		failed = true
		if !*jsonOut {
			fmt.Fprintln(out, d)
		}
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
