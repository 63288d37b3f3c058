package ittage

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"blbp/internal/history"
	"blbp/internal/trace"
)

func lateMispredicts(p *ITTAGE, targets []uint64, condOutcomes []bool) int {
	mis := 0
	start := len(targets) * 3 / 4
	for i, tgt := range targets {
		if condOutcomes != nil {
			p.OnCond(0xC04D, condOutcomes[i])
		}
		pred, ok := p.Predict(0x400100)
		if (!ok || pred != tgt) && i >= start {
			mis++
		}
		p.Update(0x400100, tgt)
	}
	return mis
}

// TestRegistersSharedGeometricLengths pins ITTAGE's tagged tables to
// history.GeometricLengths at 1, 2, 8 and 12 tables, measured through the
// hashes ITTAGE looks its tables up with: a sees one taken conditional
// branch and then not-taken ones, b the same PCs all not taken, and table
// i's length is the number of not-taken branches after which a's Index and
// Tag equal b's. cond's TestTAGERegistersGeometricLengths pins TAGE to the
// same series, so the two predictors register the same lengths.
func TestRegistersSharedGeometricLengths(t *testing.T) {
	probes := []uint64{0x400100, 0x401234, 0x7fff0040, 0x900}
	for _, n := range []int{1, 2, 8, 12} {
		cfg := DefaultConfig()
		cfg.Tables = n
		a, b := &New(cfg).hist, &New(cfg).hist
		got := make([]int, n)
		for i := range got {
			a.Reset()
			b.Reset()
			a.Shift(0xC04D, true)
			b.Shift(0xC04D, false)
			for {
				idxSame, tagSame := true, true
				for _, pc := range probes {
					idxSame = idxSame && a.Index(i, pc) == b.Index(i, pc)
					tagSame = tagSame && a.Tag(i, pc) == b.Tag(i, pc)
				}
				if idxSame != tagSame {
					t.Fatalf("%d tables, table %d: index and tag span different lengths", n, i)
				}
				if idxSame {
					break
				}
				if got[i] > cfg.HistBits {
					t.Fatalf("%d tables, table %d: taken branch never leaves the hashes", n, i)
				}
				a.Shift(0xC04D, false)
				b.Shift(0xC04D, false)
				got[i]++
			}
		}
		if want := history.GeometricLengths(cfg.MinHist, cfg.MaxHist, n); !reflect.DeepEqual(got, want) {
			t.Errorf("%d tables register %v, want %v", n, got, want)
		}
	}
}

func TestMonomorphicConverges(t *testing.T) {
	p := New(DefaultConfig())
	targets := make([]uint64, 400)
	for i := range targets {
		targets[i] = 0x7000
	}
	if mis := lateMispredicts(p, targets, nil); mis != 0 {
		t.Errorf("%d late mispredicts on monomorphic branch, want 0", mis)
	}
}

func TestConditionCorrelatedTargets(t *testing.T) {
	p := New(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	n := 4000
	targets := make([]uint64, n)
	conds := make([]bool, n)
	for i := range targets {
		conds[i] = rng.Intn(2) == 0
		if conds[i] {
			targets[i] = 0x1000
		} else {
			targets[i] = 0x2000
		}
	}
	mis := lateMispredicts(p, targets, conds)
	if mis > n/4/20 {
		t.Errorf("%d late mispredicts out of %d on condition-correlated branch, want <= %d", mis, n/4, n/4/20)
	}
}

func TestTargetSequencePattern(t *testing.T) {
	p := New(DefaultConfig())
	seq := []uint64{0x1000, 0x3000, 0x5000}
	n := 3000
	targets := make([]uint64, n)
	for i := range targets {
		targets[i] = seq[i%len(seq)]
	}
	mis := lateMispredicts(p, targets, nil)
	if mis > 10 {
		t.Errorf("%d late mispredicts on repeating target sequence, want <= 10", mis)
	}
}

func TestFirstSightHasNoPrediction(t *testing.T) {
	p := New(DefaultConfig())
	if _, ok := p.Predict(0x500); ok {
		t.Error("prediction available before any observation")
	}
	p.Update(0x500, 0x9000)
	pred, ok := p.Predict(0x500)
	if !ok || pred != 0x9000 {
		t.Errorf("Predict = %#x/%v, want 0x9000/true", pred, ok)
	}
}

func TestLongPeriodicPattern(t *testing.T) {
	// A fixed period-24 target sequence drawn from only 3 values: short
	// histories are ambiguous (every value recurs many times per period),
	// but longer-history tables see exactly repeating patterns and
	// disambiguate. Note TAGE-family predictors cannot learn correlations
	// buried in *random* noise history (each pattern is then unique) —
	// that is the perceptron predictors' advantage — so this test uses a
	// noise-free periodic stream.
	p := New(DefaultConfig())
	vals := []uint64{0x1000, 0x3000, 0x5000}
	pattern := make([]uint64, 24)
	rng := rand.New(rand.NewSource(3))
	for i := range pattern {
		pattern[i] = vals[rng.Intn(len(vals))]
	}
	misLate := 0
	const n = 20000
	for i := 0; i < n; i++ {
		tgt := pattern[i%len(pattern)]
		pred, ok := p.Predict(0x666)
		if (!ok || pred != tgt) && i > n*3/4 {
			misLate++
		}
		p.Update(0x666, tgt)
	}
	if misLate > n/4/10 {
		t.Errorf("%d late mispredicts out of %d on period-24 sequence", misLate, n/4)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		p := New(DefaultConfig())
		rng := rand.New(rand.NewSource(13))
		out := make([]uint64, 0, 500)
		for i := 0; i < 500; i++ {
			p.OnCond(0xCC, rng.Intn(2) == 0)
			pc := uint64(0x100 + rng.Intn(3)*0x40)
			pred, ok := p.Predict(pc)
			if !ok {
				pred = ^uint64(0)
			}
			out = append(out, pred)
			p.Update(pc, uint64(0x1000*(1+rng.Intn(4))))
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

func TestManyBranchesCoexist(t *testing.T) {
	p := New(DefaultConfig())
	// 200 monomorphic branches must all become predictable.
	misLate := 0
	for round := 0; round < 50; round++ {
		for b := 0; b < 200; b++ {
			pc := uint64(0x10000 + b*64)
			tgt := uint64(0x900000 + b*0x1000)
			pred, ok := p.Predict(pc)
			if (!ok || pred != tgt) && round >= 40 {
				misLate++
			}
			p.Update(pc, tgt)
		}
	}
	if misLate > 20 {
		t.Errorf("%d late mispredicts across 200 monomorphic branches, want <= 20", misLate)
	}
}

func TestStorageBudgetNearPaper(t *testing.T) {
	p := New(DefaultConfig())
	kb := float64(p.StorageBits()) / 8192
	if kb < 50 || kb > 80 {
		t.Errorf("storage = %.2f KB, want ~64 KB ballpark (50-80)", kb)
	}
}

func TestUpdateWithoutPredictIsSafe(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 50; i++ {
		p.Update(0x900, 0x1234000)
	}
	pred, ok := p.Predict(0x900)
	if !ok || pred != 0x1234000 {
		t.Errorf("Predict = %#x/%v, want 0x1234000/true", pred, ok)
	}
}

func TestOnOtherAndName(t *testing.T) {
	p := New(DefaultConfig())
	if p.Name() != "ittage" {
		t.Errorf("Name = %q", p.Name())
	}
	p.OnOther(0x1, 0x2, trace.Return)
	p.OnOther(0x1, 0x2, trace.DirectCall)
}

func TestConfigValidation(t *testing.T) {
	bad := []func(Config) Config{
		func(c Config) Config { c.BaseEntries = 0; return c },
		func(c Config) Config { c.Tables = 0; return c },
		func(c Config) Config { c.MinHist = 0; return c },
		func(c Config) Config { c.MaxHist = c.MinHist; return c },
		func(c Config) Config { c.MaxHist = c.HistBits; return c },
		func(c Config) Config { c.TagBitsMin = 2; return c },
		func(c Config) Config { c.ResetPeriod = 0; return c },
		func(c Config) Config { c.RegionEntries = 0; return c },
		func(c Config) Config { c.OffsetBits = 64; return c },
	}
	for i, mutate := range bad {
		if err := mutate(DefaultConfig()).Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

// events walks a fixed program of 24 branch sites in order, again and
// again, so that paths repeat as in a loop. By site, a conditional branch
// exits every fifth iteration, follows the previous site's outcome and the
// iteration's parity, or is taken seven times in eight at random; an
// indirect branch's target follows the iteration count and two earlier
// outcomes, so longer histories beat shorter ones, and one time in 64 it
// is one of 256 far regions, so the region array evicts; the rest are
// calls and returns. The randomness comes from a SplitMix64 sequence, so
// the stream does not depend on math/rand.
type events struct {
	s   uint64   // generator state
	i   int      // events drawn so far
	out [24]bool // this iteration's outcomes by site
}

// drive feeds p the stream's next n events.
func (ev *events) drive(p *ITTAGE, n int) {
	for end := ev.i + n; ev.i < end; ev.i++ {
		ev.s += 0x9e3779b97f4a7c15
		r := ev.s
		r = (r ^ r>>30) * 0xbf58476d1ce4e5b9
		r = (r ^ r>>27) * 0x94d049bb133111eb
		r ^= r >> 31
		it, j := ev.i/24, ev.i%24
		pc := uint64(0x400000 + j*0x40)
		switch j % 6 {
		case 0:
			ev.out[j] = it%5 != 0
		case 1:
			ev.out[j] = ev.out[j-1] != (it%2 == 1)
		case 2, 4:
			ev.out[j] = r%8 != 0
		case 3:
			k := it % 3
			if ev.out[j-3] {
				k += 2
			}
			if ev.out[j-2] {
				k++
			}
			tgt := uint64(0x900000 + j*0x10000 + k%(1+j%4*2)*0x100)
			if r%64 == 0 {
				tgt = r >> 56 << 24
			}
			p.Predict(pc)
			p.Update(pc, tgt)
			continue
		case 5:
			bt := trace.DirectCall
			if j/6%2 == 1 {
				bt = trace.Return
			}
			p.OnOther(pc, pc+0x1000, bt)
			continue
		}
		p.OnCond(pc, ev.out[j])
	}
}

// TestStateGolden pins ITTAGE's trained state byte for byte: the SHA-256
// of EncodeState after 400,000 events, at the default configuration and at
// eleven tables with a usefulness reset every 613 updates, so the mapping
// from configuration to table geometry and the alternating reset are both
// covered.
func TestStateGolden(t *testing.T) {
	short := DefaultConfig()
	short.Tables, short.ResetPeriod = 11, 613
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", DefaultConfig(), "028e4e03815df5537885fba5f500e1b4b77c48e365e9ddba6bcfe72f41dc154c"},
		{"tables=11,reset=613", short, "527b85095e7c5100997e33cdf1b68985352e092b77c32f166e3459a83a854d9d"},
	} {
		p := New(tc.cfg)
		var ev events
		ev.drive(p, 400_000)
		var buf bytes.Buffer
		if err := p.EncodeState(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
			t.Errorf("%s: state hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
