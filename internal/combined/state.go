package combined

import "io"

// EncodeState implements predictor.Snapshotter for the consolidated
// predictor: both engine roles share the one BLBP core, so its snapshot is
// the core's own.
func (p *Predictor) EncodeState(w io.Writer) error { return p.core.EncodeState(w) }

// RestoreState implements predictor.Snapshotter. On error the predictor's
// state is unspecified: discard it.
func (p *Predictor) RestoreState(r io.Reader) error { return p.core.RestoreState(r) }

// EncodeState delegates to the underlying consolidated predictor: both
// engine roles share one state, so snapshotting either view snapshots the
// whole structure. A consolidated pass should snapshot/restore exactly one
// of its two views.
func (v *IndirectView) EncodeState(w io.Writer) error { return v.p.EncodeState(w) }

// RestoreState delegates to the underlying consolidated predictor.
func (v *IndirectView) RestoreState(r io.Reader) error { return v.p.RestoreState(r) }
