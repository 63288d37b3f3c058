package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"blbp/internal/snapshot"
)

// trainRandom drives the predictor through n random indirect branches with
// interleaved conditional outcomes, exercising weights, IBTB, histories,
// and thresholds.
func trainRandom(p *BLBP, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	pcs := []uint64{0x400100, 0x400200, 0x400300}
	targetSets := [][]uint64{
		{0x7000, 0x7100, 0x7200},
		{0x81000, 0x82000},
		{0x9000, 0x9400, 0x9800, 0x9c00},
	}
	for i := 0; i < n; i++ {
		p.OnCond(0xC04D+uint64(i%7)*4, rng.Intn(2) == 0)
		b := rng.Intn(len(pcs))
		tgt := targetSets[b][rng.Intn(len(targetSets[b]))]
		p.Predict(pcs[b])
		p.Update(pcs[b], tgt)
	}
}

func TestSnapshotRoundTripRestoresTrainedState(t *testing.T) {
	hier := DefaultConfig()
	hier.UseHierarchicalIBTB = true
	for _, cfg := range []Config{DefaultConfig(), hier} {
		a := New(cfg)
		trainRandom(a, 42, 3000)

		var buf bytes.Buffer
		if err := a.EncodeState(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		b := New(cfg)
		if err := b.RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("restore: %v", err)
		}

		if af, bf := a.Fingerprint(), b.Fingerprint(); af != bf {
			t.Fatalf("fingerprint %016x after restore, want %016x", bf, af)
		}
		// The derived packed image must be rebuilt exactly, not just the
		// canonical weights.
		for i := range a.pweights {
			if a.pweights[i] != b.pweights[i] {
				t.Fatalf("pweights diverge at word %d", i)
			}
		}
		// The two predictors must behave identically from here on.
		for i := 0; i < 500; i++ {
			pc := uint64(0x400100 + (i%3)*0x100)
			pa, oka := a.Predict(pc)
			pb, okb := b.Predict(pc)
			if pa != pb || oka != okb {
				t.Fatalf("prediction %d diverges: (%x,%v) vs (%x,%v)", i, pa, oka, pb, okb)
			}
			tgt := uint64(0x7000 + (i%4)*0x100)
			a.Update(pc, tgt)
			b.Update(pc, tgt)
			a.OnCond(0xC04D, i%3 == 0)
			b.OnCond(0xC04D, i%3 == 0)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("fingerprints diverge after post-restore traffic")
		}
	}
}

// Encoding must be a pure read: the predictor behaves identically whether or
// not a snapshot was taken mid-run.
func TestEncodeDoesNotPerturb(t *testing.T) {
	a := New(DefaultConfig())
	b := New(DefaultConfig())
	trainRandom(a, 7, 1000)
	trainRandom(b, 7, 1000)
	var buf bytes.Buffer
	if err := a.EncodeState(&buf); err != nil {
		t.Fatal(err)
	}
	trainRandom(a, 8, 1000)
	trainRandom(b, 8, 1000)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("taking a snapshot changed predictor behaviour")
	}
}

func TestRestoreRejectsDamage(t *testing.T) {
	a := New(DefaultConfig())
	trainRandom(a, 3, 500)
	var buf bytes.Buffer
	if err := a.EncodeState(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncations at sampled points.
	for _, n := range []int{0, 7, 8, 40, len(good) / 2, len(good) - 1} {
		if err := New(DefaultConfig()).RestoreState(bytes.NewReader(good[:n])); err == nil {
			t.Errorf("restore of %d-byte truncation succeeded", n)
		}
	}
	// Bit flips at sampled points must fail the magic or a checksum.
	for _, off := range []int{0, 9, len(good) / 3, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if err := New(DefaultConfig()).RestoreState(bytes.NewReader(bad)); err == nil {
			t.Errorf("restore of snapshot with bit flip at %d succeeded", off)
		}
	}
	// A different configuration must be refused up front.
	cfg := DefaultConfig()
	cfg.ThetaInit++
	if err := New(cfg).RestoreState(bytes.NewReader(good)); !errors.Is(err, snapshot.ErrMismatch) {
		t.Errorf("restore into different config: got %v, want ErrMismatch", err)
	}
}
