package cond

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

// TestTAGERegistersGeometricLengths pins TAGE's tagged tables to
// history.GeometricLengths at 1, 2, 8 and 12 tables, measured through the
// hashes TAGE looks its tables up with: a sees one taken branch and then
// not-taken ones, b the same PCs all not taken, and table i's length is
// the number of not-taken branches after which a's Index and Tag equal
// b's. ittage's TestRegistersSharedGeometricLengths pins ITTAGE to the
// same series.
func TestTAGERegistersGeometricLengths(t *testing.T) {
	probes := []uint64{0x400100, 0x401234, 0x7fff0040, 0xC04D}
	for _, n := range []int{1, 2, 8, 12} {
		cfg := DefaultTAGEConfig()
		cfg.Tables = n
		a, b := &NewTAGE(cfg).hist, &NewTAGE(cfg).hist
		got := make([]int, n)
		for i := range got {
			a.Reset()
			b.Reset()
			a.Shift(0x500, true)
			b.Shift(0x500, false)
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
				a.Shift(0x500, false)
				b.Shift(0x500, false)
				got[i]++
			}
		}
		if want := history.GeometricLengths(cfg.MinHist, cfg.MaxHist, n); !reflect.DeepEqual(got, want) {
			t.Errorf("%d tables register %v, want %v", n, got, want)
		}
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
		func(c TAGEConfig) TAGEConfig { c.TagBitsMin = -3; return c },
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

// tageEvents walks a fixed program of 24 branch sites in order, again and
// again, so that paths repeat as in a loop. By site, a conditional branch
// exits every fifth iteration, follows the previous site's outcome and the
// iteration's parity, or is taken seven times in eight at random; an
// indirect jump's target follows the iteration count and two earlier
// outcomes (a random far target one time in 64); the rest are calls and
// returns. The randomness comes from a SplitMix64 sequence, so the stream
// does not depend on math/rand.
type tageEvents struct {
	s   uint64   // generator state
	i   int      // events drawn so far
	out [24]bool // this iteration's outcomes by site
}

// drive feeds p the stream's next n events.
func (ev *tageEvents) drive(p *TAGE, n int) {
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
			p.OnOther(pc, tgt, trace.IndirectJump)
			continue
		case 5:
			bt := trace.DirectCall
			if j/6%2 == 1 {
				bt = trace.Return
			}
			p.OnOther(pc, pc+0x1000, bt)
			continue
		}
		p.Predict(pc)
		p.Train(pc, ev.out[j])
		p.UpdateHistory(pc, ev.out[j])
	}
}

func tageState(t *testing.T, p *TAGE) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.EncodeState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTAGEStateGolden pins TAGE's trained state byte for byte: the SHA-256
// of EncodeState after 400,000 events, at the default configuration and at
// five tables with a usefulness reset every 997 updates, so the mapping
// from configuration to table geometry and the alternating reset are both
// covered.
func TestTAGEStateGolden(t *testing.T) {
	short := DefaultTAGEConfig()
	short.Tables, short.ResetPeriod = 5, 997
	for _, tc := range []struct {
		name string
		cfg  TAGEConfig
		want string
	}{
		{"default", DefaultTAGEConfig(), "5bddfac4be3a1c6aa0aaa90cfc6a402775f88d57da4cf34e24720a78174aedb3"},
		{"tables=5,reset=997", short, "3c7fd58f736295fa4ad9c5406704a9eb37324496a3203437912c6fac8dce241c"},
	} {
		p := NewTAGE(tc.cfg)
		var ev tageEvents
		ev.drive(p, 400_000)
		if got := fmt.Sprintf("%x", sha256.Sum256(tageState(t, p))); got != tc.want {
			t.Errorf("%s: state hash %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestTAGESnapshotResumes restores a trained TAGE into a fresh one, drives
// both on, and requires the same state bytes: a restored TAGE continues
// exactly as the original does.
func TestTAGESnapshotResumes(t *testing.T) {
	cfg := DefaultTAGEConfig()
	cfg.ResetPeriod = 997
	a, b := NewTAGE(cfg), NewTAGE(cfg)
	var ev tageEvents
	ev.drive(a, 100_000)
	if err := b.RestoreState(bytes.NewReader(tageState(t, a))); err != nil {
		t.Fatal(err)
	}
	evB := ev
	ev.drive(a, 100_000)
	evB.drive(b, 100_000)
	if !bytes.Equal(tageState(t, a), tageState(t, b)) {
		t.Error("restored TAGE diverged from the original")
	}
}
