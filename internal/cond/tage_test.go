package cond

import (
	"math/rand"
	"reflect"
	"testing"

	"blbp/internal/history"
)

func TestTAGEAlwaysTaken(t *testing.T) {
	p := NewTAGE(DefaultTAGEConfig())
	outcomes := make([]bool, 2000)
	for i := range outcomes {
		outcomes[i] = true
	}
	if mis := measureLateMispredicts(p, []uint64{0x400100}, outcomes); mis != 0 {
		t.Errorf("%d late mispredicts on always-taken branch", mis)
	}
}

func TestTAGEAlternating(t *testing.T) {
	p := NewTAGE(DefaultTAGEConfig())
	outcomes := make([]bool, 2000)
	for i := range outcomes {
		outcomes[i] = i%2 == 0
	}
	if mis := measureLateMispredicts(p, []uint64{0x500}, outcomes); mis > 5 {
		t.Errorf("%d late mispredicts on alternating pattern, want <= 5", mis)
	}
}

func TestTAGELongPeriodicPattern(t *testing.T) {
	// Period-24 patterns exceed short-history tables and exercise tag
	// matching and allocation in the longer ones.
	p := NewTAGE(DefaultTAGEConfig())
	rng := rand.New(rand.NewSource(4))
	pattern := make([]bool, 24)
	for i := range pattern {
		pattern[i] = rng.Intn(2) == 0
	}
	outcomes := make([]bool, 20000)
	for i := range outcomes {
		outcomes[i] = pattern[i%len(pattern)]
	}
	mis := measureLateMispredicts(p, []uint64{0x700}, outcomes)
	if mis > 50 {
		t.Errorf("%d late mispredicts on period-24 pattern (of 5000)", mis)
	}
}

func TestTAGEBeatsBimodalOnHistoryPattern(t *testing.T) {
	outcomes := make([]bool, 4000)
	for i := range outcomes {
		outcomes[i] = i%3 != 2
	}
	tage := NewTAGE(DefaultTAGEConfig())
	bim := NewBimodal(4096)
	tageMis := measureLateMispredicts(tage, []uint64{0x900}, outcomes)
	bimMis := measureLateMispredicts(bim, []uint64{0x900}, outcomes)
	if tageMis >= bimMis {
		t.Errorf("TAGE (%d) not better than bimodal (%d) on period-3 loop", tageMis, bimMis)
	}
}

func TestTAGEManyBranches(t *testing.T) {
	p := NewTAGE(DefaultTAGEConfig())
	misLate := 0
	for round := 0; round < 40; round++ {
		for b := 0; b < 200; b++ {
			pc := uint64(0x10000 + b*64)
			taken := b%3 != 0
			pred := p.Predict(pc)
			if pred != taken && round >= 30 {
				misLate++
			}
			p.Train(pc, taken)
			p.UpdateHistory(pc, taken)
		}
	}
	if misLate > 40 {
		t.Errorf("%d late mispredicts across 200 biased branches", misLate)
	}
}

func TestTAGEDeterminism(t *testing.T) {
	run := func() []bool {
		p := NewTAGE(DefaultTAGEConfig())
		rng := rand.New(rand.NewSource(11))
		out := make([]bool, 0, 1000)
		for i := 0; i < 1000; i++ {
			pc := uint64(rng.Intn(32)) * 4
			taken := rng.Intn(3) != 0
			out = append(out, p.Predict(pc))
			p.Train(pc, taken)
			p.UpdateHistory(pc, taken)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs between identical runs", i)
		}
	}
}

func TestTAGEStorageClass(t *testing.T) {
	p := NewTAGE(DefaultTAGEConfig())
	kb := float64(p.StorageBits()) / 8192
	if kb < 30 || kb > 90 {
		t.Errorf("TAGE storage %.1f KB, want the 64 KB class", kb)
	}
}

func TestTAGEConstructorPanics(t *testing.T) {
	bad := []func(TAGEConfig) TAGEConfig{
		func(c TAGEConfig) TAGEConfig { c.BaseEntries = 0; return c },
		func(c TAGEConfig) TAGEConfig { c.Tables = 0; return c },
		func(c TAGEConfig) TAGEConfig { c.MinHist = 0; return c },
		func(c TAGEConfig) TAGEConfig { c.MaxHist = c.MinHist; return c },
		func(c TAGEConfig) TAGEConfig { c.MaxHist = c.HistBits; return c },
		func(c TAGEConfig) TAGEConfig { c.ResetPeriod = 0; return c },
	}
	for i, mutate := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mutation %d accepted", i)
				}
			}()
			NewTAGE(mutate(DefaultTAGEConfig()))
		}()
	}
}

func TestTAGETrainWithoutPredictIsSafe(t *testing.T) {
	p := NewTAGE(DefaultTAGEConfig())
	for i := 0; i < 100; i++ {
		p.Train(0x123, true)
		p.UpdateHistory(0x123, true)
	}
	if !p.Predict(0x123) {
		t.Error("bias not learned through out-of-contract Train")
	}
}

// TestTAGERegistersGeometricLengths pins TAGE's tagged tables to
// history.GeometricLengths at 1, 2, 8 and 12 tables: each table's index
// and tag folds span its length. ittage's
// TestRegistersSharedGeometricLengths pins ITTAGE to the same series, so
// the two predictors register the same lengths.
func TestTAGERegistersGeometricLengths(t *testing.T) {
	for _, n := range []int{1, 2, 8, 12} {
		cfg := DefaultTAGEConfig()
		cfg.Tables = n
		p := NewTAGE(cfg)
		got := make([]int, n)
		for i := range got {
			// Shift one taken bit in and count the not-taken bits that push
			// it out of both folds.
			p.ghist.Reset()
			p.ghist.Shift(true)
			for p.ghist.Value(p.idxFolds[i]) != 0 {
				p.ghist.Shift(false)
				got[i]++
				if (p.ghist.Value(p.tagFolds[i]) != 0) != (p.ghist.Value(p.idxFolds[i]) != 0) {
					t.Fatalf("%d tables, table %d: index and tag folds span different lengths", n, i)
				}
			}
		}
		if want := history.GeometricLengths(cfg.MinHist, cfg.MaxHist, n); !reflect.DeepEqual(got, want) {
			t.Errorf("%d tables register %v, want %v", n, got, want)
		}
	}
}
