package core

import (
	"fmt"
	"io"

	"blbp/internal/snapshot"
)

// Snapshot section kinds of the BLBP core container.
const (
	snapName   = "blbp"
	secWeights = "weights"
	secIBTB    = "ibtb"
	secGhist   = "ghist"
	secLocal   = "local"
	secThetas  = "thetas"
)

// EncodeState implements predictor.Snapshotter: the trained state framed in
// a BLBPSNP1 container under name "blbp" and the configuration fingerprint.
// Only the canonical state travels — the packed weight image and the
// transfer cache are derived from the weights on restore, and the folded
// histories are flushed (caught up) on encode so no lazy state needs
// serializing. Encoding does not perturb the predictor.
func (p *BLBP) EncodeState(w io.Writer) error {
	c := snapshot.NewContainer(snapName, snapshot.Fingerprint(p.cfg))
	c.Section(secWeights).I8s(p.weights)
	p.buffer.EncodeState(c.Section(secIBTB))
	p.ghist.EncodeState(c.Section(secGhist))
	p.local.EncodeState(c.Section(secLocal))
	te := c.Section(secThetas)
	te.Int(len(p.thetas))
	for _, th := range p.thetas {
		theta, tc := th.State()
		te.Int(theta)
		te.Int(tc)
	}
	return c.EncodeTo(w)
}

// RestoreState implements predictor.Snapshotter, reinstating state captured
// by EncodeState into a predictor built from the same configuration. The
// prediction cache is flushed, so the next Predict recomputes from the
// restored tables. On error the predictor's state is unspecified: discard
// it or call Reset before reuse.
func (p *BLBP) RestoreState(r io.Reader) error {
	dc, err := snapshot.ReadContainer(r, snapName, snapshot.Fingerprint(p.cfg))
	if err != nil {
		return err
	}

	d, err := dc.Section(secWeights)
	if err != nil {
		return err
	}
	weights := make([]int8, len(p.weights))
	d.I8sInto(weights)
	if err := d.Finish(); err != nil {
		return err
	}
	for i, w := range weights {
		if w > p.wMax || w < -p.wMax {
			return fmt.Errorf("%w: weight %d at %d outside ±%d", snapshot.ErrCorrupt, w, i, p.wMax)
		}
	}

	if d, err = dc.Section(secIBTB); err != nil {
		return err
	}
	if err := p.buffer.RestoreState(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}

	if d, err = dc.Section(secGhist); err != nil {
		return err
	}
	if err := p.ghist.RestoreState(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}

	if d, err = dc.Section(secLocal); err != nil {
		return err
	}
	if err := p.local.RestoreState(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}

	if d, err = dc.Section(secThetas); err != nil {
		return err
	}
	nth := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nth != len(p.thetas) {
		return fmt.Errorf("%w: %d thresholds, have %d", snapshot.ErrMismatch, nth, len(p.thetas))
	}
	for _, th := range p.thetas {
		theta := d.Int()
		tc := d.Int()
		if d.Err() != nil {
			break
		}
		if err := th.SetState(theta, tc); err != nil {
			return fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}

	copy(p.weights, weights)
	p.rebuildPacked()
	p.flushPrediction()
	return nil
}

// rebuildPacked derives the packed weight image from the canonical weights:
// the all-zero bias image first, then one lane write per nonzero weight
// (transfer(0) is 0 in both transfer modes, so zero weights are already
// right).
func (p *BLBP) rebuildPacked() {
	p.fillPackedBias()
	n := p.cfg.SubPredictors()
	for i := 0; i < n; i++ {
		for r := 0; r < p.cfg.TableEntries; r++ {
			base := i*p.tableStride + r*p.cfg.K
			prow := (i*p.cfg.TableEntries + r) * p.wordsPerRow
			for k := 0; k < p.cfg.K; k++ {
				if w := p.weights[base+k]; w != 0 {
					p.setLane(prow, k, p.transfer[int(w)+int(p.wMax)])
				}
			}
		}
	}
}

// flushPrediction clears the Predict→Update cache so the next call
// recomputes through the standard path.
func (p *BLBP) flushPrediction() {
	p.lastPC, p.lastOK = 0, false
	p.suppressMask = 0
	p.candBuf = p.candBuf[:0]
	p.candBits = p.candBits[:0]
}
