package analysis

import (
	"path/filepath"
	"sort"
)

// JSONVersion is the schema version of blbplint's -jsonout report. Bump it
// when a field changes meaning or is removed; adding fields is
// backward-compatible and does not bump it. Version 2 writes file paths
// relative to the lint root and drops version 1's suggested-fix field.
const JSONVersion = 2

// JSONReport is the machine-readable findings artifact blbplint -jsonout
// writes (make lint writes it to results/lint.json).
type JSONReport struct {
	Version  int           `json:"version"`
	Findings []JSONFinding `json:"findings"`
}

// JSONFinding is one diagnostic in stable machine-readable form.
type JSONFinding struct {
	File       string `json:"file"` // slash-separated, relative to the lint root
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// SortDiagnostics orders diags by (file, line, column, analyzer) — the
// stable order both the text and JSON outputs use.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Report converts sorted diagnostics into the JSON artifact form, with
// each file path made relative to root (the directory the packages were
// loaded from), so the report does not depend on where the checkout lives.
func Report(diags []Diagnostic, root string) (JSONReport, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return JSONReport{}, err
	}
	rep := JSONReport{Version: JSONVersion, Findings: []JSONFinding{}}
	for _, d := range diags {
		file, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			return JSONReport{}, err
		}
		rep.Findings = append(rep.Findings, JSONFinding{
			File:       filepath.ToSlash(file),
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Suppressed: d.Suppressed,
		})
	}
	return rep, nil
}
