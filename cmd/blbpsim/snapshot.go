// Run-level snapshots: blbpsim -snapshot pauses every requested pass at the
// same record index and writes one BLBPSNP1 container holding the engine
// state (sim.PausedRun) plus each predictor's warm state; -restore rebuilds
// the passes in a fresh process and resumes them to completion. The
// container's fingerprint covers the trace identity and the "run" section
// pins the predictor list and config overrides, so a snapshot cannot be
// silently resumed against a different workload or predictor set.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"blbp"
	"blbp/internal/predictor"
	"blbp/internal/sim"
	"blbp/internal/snapshot"
)

const (
	runSnapName = "blbpsim"
	// maxRunStr / maxNestedSnap bound decoded strings and nested predictor
	// snapshots, mirroring the snapshot package's own decode bounds.
	maxRunStr     = 1 << 16
	maxNestedSnap = 1 << 28
)

// runFingerprint hashes the run identity a snapshot is bound to: the
// trace's name, record count, and instruction count.
func runFingerprint(tr *blbp.Trace) uint64 {
	return snapshot.Fingerprint(struct {
		Trace        string
		Records      int
		Instructions int64
	}{tr.Name, tr.Len(), tr.Instructions()})
}

// pass is one built predictor pass: the conditional predictor, the indirect
// predictor under test, and its modeled storage budget. consolidated marks
// a pass whose indirect predictor is a view of its conditional predictor
// (combined), so the two share one state.
type pass struct {
	cp           blbp.ConditionalPredictor
	p            blbp.IndirectPredictor
	bits         int
	consolidated bool
}

// snapshotters resolves the pass's Snapshotter faces, with a clear error
// for catalog entries that do not support warm-state snapshots. A
// consolidated pass has no separate indirect face (is is nil): its
// conditional face already encodes the whole structure.
func (ps *pass) snapshotters(name string) (cs, is predictor.Snapshotter, err error) {
	cs, ok := predictor.AsSnapshotter(ps.cp)
	if !ok {
		return nil, nil, fmt.Errorf("conditional predictor for %q (%T) does not support snapshots", name, ps.cp)
	}
	if ps.consolidated {
		return cs, nil, nil
	}
	is, ok = predictor.AsSnapshotter(ps.p)
	if !ok {
		return nil, nil, fmt.Errorf("predictor %q does not support snapshots (snapshottable: blbp, ittage, combined)", name)
	}
	return cs, is, nil
}

// snapshotRun runs every pass up to record snapAt and writes the combined
// snapshot atomically (fsynced temp file renamed into place; DESIGN.md §7).
func snapshotRun(tr *blbp.Trace, names []string, configs configFlags, path string, snapAt int) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	c := snapshot.NewContainer(runSnapName, runFingerprint(tr))
	re := c.Section("run")
	re.Int(snapAt)
	re.Int(len(names))
	for _, name := range names {
		re.String(name)
		re.String(configs[name])
	}
	for i, name := range names {
		ps, err := buildPass(name, []byte(configs[name]))
		if err != nil {
			return err
		}
		cs, is, err := ps.snapshotters(name)
		if err != nil {
			return err
		}
		pr, err := sim.RunColumnsUntil(tr, ps.cp, []predictor.Indirect{ps.p}, sim.Options{}, snapAt)
		if err != nil {
			return err
		}
		pr.EncodeState(c.Section(fmt.Sprintf("pass%d.sim", i)))
		if err := encodeNested(c.Section(fmt.Sprintf("pass%d.cond", i)), cs); err != nil {
			return fmt.Errorf("snapshotting conditional predictor for %q: %w", name, err)
		}
		if is != nil {
			if err := encodeNested(c.Section(fmt.Sprintf("pass%d.ind", i)), is); err != nil {
				return fmt.Errorf("snapshotting %q: %w", name, err)
			}
		}
	}
	if err := snapshot.WriteFileAtomic(path, "blbpsnp-*.tmp", c.EncodeTo); err != nil {
		return err
	}
	stop := snapAt
	if n := tr.Len(); stop > n {
		stop = n
	}
	fmt.Printf("snapshot of %s at record %d/%d (%d passes) written to %s\n",
		tr.Name, stop, tr.Len(), len(names), path)
	return nil
}

// encodeNested frames one predictor's own snapshot as a length-prefixed
// byte string inside a container section.
func encodeNested(e *snapshot.Enc, s predictor.Snapshotter) error {
	var buf bytes.Buffer
	if err := s.EncodeState(&buf); err != nil {
		return err
	}
	e.Bytes(buf.Bytes())
	return nil
}

// resumeRun restores a -snapshot file against the same trace, predictor
// list, and config overrides, resumes every pass to completion, and returns
// the per-pass results — bit-identical to an uninterrupted run.
func resumeRun(tr *blbp.Trace, names []string, configs configFlags, path string) ([]passResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec, err := snapshot.ReadContainer(f, runSnapName, runFingerprint(tr))
	if err != nil {
		return nil, fmt.Errorf("reading snapshot %s: %w", path, err)
	}
	rd, err := dec.Section("run")
	if err != nil {
		return nil, err
	}
	rd.Int() // snapAt: informational; PausedRun carries the resume index
	nPasses := rd.Int()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if nPasses != len(names) {
		return nil, fmt.Errorf("snapshot holds %d passes, -predictors names %d", nPasses, len(names))
	}
	for _, name := range names {
		storedName := rd.StringMax(maxRunStr)
		storedCfg := rd.StringMax(maxRunStr)
		if err := rd.Err(); err != nil {
			return nil, err
		}
		if storedName != name {
			return nil, fmt.Errorf("snapshot pass order %q, -predictors has %q (the lists must match exactly)", storedName, name)
		}
		if storedCfg != configs[name] {
			return nil, fmt.Errorf("snapshot of %q took -config %q, resuming with %q", name, storedCfg, configs[name])
		}
	}
	if err := rd.Finish(); err != nil {
		return nil, err
	}

	results := make([]passResult, 0, len(names))
	for i, name := range names {
		ps, err := buildPass(name, []byte(configs[name]))
		if err != nil {
			return nil, err
		}
		cs, is, err := ps.snapshotters(name)
		if err != nil {
			return nil, err
		}
		if err := restoreNested(dec, fmt.Sprintf("pass%d.cond", i), cs); err != nil {
			return nil, fmt.Errorf("restoring conditional predictor for %q: %w", name, err)
		}
		if is != nil {
			if err := restoreNested(dec, fmt.Sprintf("pass%d.ind", i), is); err != nil {
				return nil, fmt.Errorf("restoring %q: %w", name, err)
			}
		}
		sd, err := dec.Section(fmt.Sprintf("pass%d.sim", i))
		if err != nil {
			return nil, err
		}
		pr, err := sim.RestorePausedRun(sd)
		if err != nil {
			return nil, fmt.Errorf("restoring engine state for %q: %w", name, err)
		}
		if err := sd.Finish(); err != nil {
			return nil, err
		}
		res, err := sim.ResumeColumns(tr, ps.cp, []predictor.Indirect{ps.p}, pr)
		if err != nil {
			return nil, err
		}
		results = append(results, passResult{name: name, res: res[0], bits: ps.bits})
	}
	return results, nil
}

// restoreNested reinstates one predictor's nested snapshot from a section.
func restoreNested(dec *snapshot.Decoded, kind string, s predictor.Snapshotter) error {
	sd, err := dec.Section(kind)
	if err != nil {
		return err
	}
	nested := sd.BytesMax(maxNestedSnap)
	if err := sd.Finish(); err != nil {
		return err
	}
	return s.RestoreState(bytes.NewReader(nested))
}

// writeCSV renders the result table to path as CSV.
func writeCSV(path string, render func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
