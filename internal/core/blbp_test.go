package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"blbp/internal/trace"
)

func testConfig() Config {
	return DefaultConfig()
}

// runIndirect drives the predictor through a sequence of (conditional
// outcome, indirect target) pairs at fixed PCs and returns mispredictions in
// the final quarter.
func lateMispredicts(p *BLBP, targets []uint64, condOutcomes []bool) int {
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

func TestMonomorphicConverges(t *testing.T) {
	p := New(testConfig())
	targets := make([]uint64, 400)
	for i := range targets {
		targets[i] = 0x7000
	}
	if mis := lateMispredicts(p, targets, nil); mis != 0 {
		t.Errorf("%d late mispredicts on monomorphic branch, want 0", mis)
	}
}

func TestConditionCorrelatedTargets(t *testing.T) {
	// The target is determined by the most recent conditional outcome,
	// which BLBP records in its global history. The shortest interval
	// sub-predictor must learn this.
	p := New(testConfig())
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
	// A,B,C repeating: with target bits folded into global history the
	// pattern is fully determined by recent history.
	p := New(testConfig())
	seq := []uint64{0x1000, 0x2000, 0x3000}
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

func TestLocalHistoryPattern(t *testing.T) {
	// Alternating two targets that differ in bit 3, so local history
	// (which records bit 3) captures the pattern even without conditional
	// history between executions.
	p := New(testConfig())
	n := 2000
	targets := make([]uint64, n)
	for i := range targets {
		if i%2 == 0 {
			targets[i] = 0x1008 // bit 3 set
		} else {
			targets[i] = 0x1010
		}
	}
	mis := lateMispredicts(p, targets, nil)
	if mis > 10 {
		t.Errorf("%d late mispredicts on alternating targets, want <= 10", mis)
	}
}

func TestIBTBMissOnFirstSight(t *testing.T) {
	p := New(testConfig())
	if _, ok := p.Predict(0x500); ok {
		t.Error("prediction available before any target was observed")
	}
	p.Update(0x500, 0x9000)
	pred, ok := p.Predict(0x500)
	if !ok || pred != 0x9000 {
		t.Errorf("Predict after one observation = %#x/%v, want 0x9000/true", pred, ok)
	}
}

func TestSelectiveTrainingSuppressesSharedBits(t *testing.T) {
	// A branch alternating between two targets that differ in exactly one
	// predicted bit: with selective training only that bit trains once
	// both targets are known; without it all K bits train. Training volume
	// is the number of weights each Update changes, summed over the run.
	run := func(selective bool) int {
		cfg := testConfig()
		cfg.UseSelective = selective
		p := New(cfg)
		before := make([]int8, len(p.weights))
		changed := 0
		for i := 0; i < 200; i++ {
			p.Predict(0x600)
			copy(before, p.weights)
			if i%2 == 0 {
				p.Update(0x600, 0x4440)
			} else {
				p.Update(0x600, 0x4450) // differs only in bit 4
			}
			for j, w := range p.weights {
				if w != before[j] {
					changed++
				}
			}
		}
		return changed
	}
	on, off := run(true), run(false)
	// The adaptive threshold silences confident bits in both modes, so the
	// absolute counts are small either way; selective must still strictly
	// reduce training volume by skipping the eleven shared bits.
	if on >= off {
		t.Errorf("selective on should train fewer weights: on=%d off=%d", on, off)
	}
}

func TestWeightsStayInRange(t *testing.T) {
	p := New(testConfig())
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		p.OnCond(uint64(rng.Intn(8)), rng.Intn(2) == 0)
		pc := uint64(0x100 + rng.Intn(4)*64)
		tgt := uint64(0x1000 << uint(rng.Intn(3)))
		p.Predict(pc)
		p.Update(pc, tgt)
	}
	for j, w := range p.weights {
		if w < -p.wMax || w > p.wMax {
			t.Fatalf("weight[%d] = %d outside ±%d", j, w, p.wMax)
		}
	}
}

func TestAllAblationConfigsRun(t *testing.T) {
	flags := []bool{false, true}
	rng := rand.New(rand.NewSource(9))
	for _, local := range flags {
		for _, intervals := range flags {
			for _, transfer := range flags {
				for _, adaptive := range flags {
					for _, selective := range flags {
						cfg := testConfig().WithAllOptimizations(local, intervals, transfer, adaptive, selective)
						p := New(cfg)
						for i := 0; i < 200; i++ {
							p.OnCond(0xC, rng.Intn(2) == 0)
							pc := uint64(0x100)
							p.Predict(pc)
							p.Update(pc, uint64(0x1000+rng.Intn(4)*0x100))
						}
					}
				}
			}
		}
	}
}

func TestGEHLFallbackLearns(t *testing.T) {
	cfg := testConfig()
	cfg.UseIntervals = false
	p := New(cfg)
	// Note: the two targets must hash to different low history bits for the
	// pattern to be visible in global history at all (0x1000 and 0x2000
	// happen to collide in the 2 inserted bits).
	seq := []uint64{0x1000, 0x3000}
	targets := make([]uint64, 2000)
	for i := range targets {
		targets[i] = seq[i%2]
	}
	mis := lateMispredicts(p, targets, nil)
	if mis > 10 {
		t.Errorf("GEHL-only config: %d late mispredicts on alternating targets, want <= 10", mis)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		p := New(testConfig())
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

func TestUpdateWithoutPredictIsSafe(t *testing.T) {
	p := New(testConfig())
	// Out-of-contract use must not panic and must still learn.
	for i := 0; i < 50; i++ {
		p.Update(0x900, 0x1234000)
	}
	pred, ok := p.Predict(0x900)
	if !ok || pred != 0x1234000 {
		t.Errorf("Predict = %#x/%v, want 0x1234000/true", pred, ok)
	}
}

func TestStorageBudgetNearPaper(t *testing.T) {
	p := New(DefaultConfig())
	kb := float64(p.StorageBits()) / 8192
	// Paper reports 64.08 KB for prediction tables + histories + IBTB +
	// region array. Our M=1024 rows land close; require the same ballpark.
	if kb < 50 || kb > 80 {
		t.Errorf("storage = %.2f KB, want ~64 KB ballpark (50-80)", kb)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(Config) Config{
		func(c Config) Config { c.K = 0; return c },
		func(c Config) Config { c.K = 40; return c },
		func(c Config) Config { c.BitOffset = 60; return c },
		func(c Config) Config { c.TableEntries = 0; return c },
		func(c Config) Config { c.WeightBits = 1; return c },
		func(c Config) Config { c.WeightBits = int(maxWeightBits) + 1; return c },
		func(c Config) Config { return withSubPredictors(c, int(maxSubPredictors)+1) },
		func(c Config) Config { c.Intervals = nil; return c },
		func(c Config) Config { c.GEHLLengths = c.GEHLLengths[:3]; return c },
		func(c Config) Config { c.Intervals[0].Hi = 9999; return c },
		func(c Config) Config { c.GEHLLengths[0] = 0; return c },
		func(c Config) Config { c.LocalEntries = 0; return c },
		func(c Config) Config { c.GlobalTargetBits = -1; return c },
		func(c Config) Config { c.ThetaInit = 0; return c },
	}
	for i, mutate := range bad {
		cfg := mutate(DefaultConfig())
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted invalid config", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	if err := withSubPredictors(DefaultConfig(), int(maxSubPredictors)).Validate(); err != nil {
		t.Errorf("%d sub-predictors rejected: %v", maxSubPredictors, err)
	}
}

func TestNamePinnedAndOnOtherIgnored(t *testing.T) {
	p := New(testConfig())
	if p.Name() != "blbp" {
		t.Errorf("Name = %q, want blbp", p.Name())
	}
	p.OnOther(0x1, 0x2, trace.Return) // must not panic or disturb state
	p.Update(0x10, 0x5000)
	if pred, ok := p.Predict(0x10); !ok || pred != 0x5000 {
		t.Error("state disturbed by OnOther")
	}
}

func TestManyTargetsStillSelects(t *testing.T) {
	// A branch with many targets where the choice rotates: BLBP must keep
	// all of them in the IBTB set and select among them without error.
	p := New(testConfig())
	const nTargets = 32
	targets := make([]uint64, 6000)
	for i := range targets {
		targets[i] = uint64(0x1000 + (i%nTargets)*0x40)
	}
	mis := lateMispredicts(p, targets, nil)
	// Rotation through 32 targets is determined by history; expect strong
	// but not perfect learning.
	if mis > len(targets)/4/2 {
		t.Errorf("%d late mispredicts on 32-target rotation (out of %d), want <= half", mis, len(targets)/4)
	}
}

func TestTransferFunctionShapes(t *testing.T) {
	on := buildTransferTable(4, true)
	off := buildTransferTable(4, false)
	if len(on) != 15 || len(off) != 15 {
		t.Fatalf("table lengths = %d, %d; want 15 (range -7..7)", len(on), len(off))
	}
	// Identity when disabled.
	for w := -7; w <= 7; w++ {
		if off[w+7] != w {
			t.Errorf("off-table[%d] = %d, want identity", w, off[w+7])
		}
	}
	// Odd symmetry and convexity when enabled.
	for w := 0; w <= 7; w++ {
		if on[7+w] != -on[7-w] {
			t.Errorf("transfer not odd-symmetric at %d", w)
		}
	}
	for w := 1; w <= 7; w++ {
		if on[7+w] <= on[7+w-1] {
			t.Errorf("transfer not strictly increasing at magnitude %d", w)
		}
	}
	// Convex: second differences non-negative.
	for w := 2; w <= 7; w++ {
		d1 := on[7+w] - on[7+w-1]
		d0 := on[7+w-1] - on[7+w-2]
		if d1 < d0 {
			t.Errorf("transfer not convex at magnitude %d", w)
		}
	}
	// Range: at every width Validate accepts, each entry fits the
	// transferHi the packed lanes are sized for.
	for wb := 2; wb <= int(maxWeightBits); wb++ {
		for _, useTransfer := range []bool{true, false} {
			for i, v := range buildTransferTable(wb, useTransfer) {
				if v > int(transferHi) || v < -int(transferHi) {
					t.Errorf("WeightBits=%d transfer=%v: entry %d = %d exceeds ±%d", wb, useTransfer, i, v, transferHi)
				}
			}
		}
	}
}

func TestHierarchicalIBTBConverges(t *testing.T) {
	cfg := testConfig()
	cfg.UseHierarchicalIBTB = true
	p := New(cfg)
	var o Observation
	p.Observe(&o)
	// Targets must be distinct within BLBP's K-bit prediction window
	// (bits 2..13): 0x5000-style values alias with 0x1000 there.
	seq := []uint64{0x1000, 0x2000, 0x3000}
	targets := make([]uint64, 3000)
	for i := range targets {
		targets[i] = seq[i%len(seq)]
	}
	mis := lateMispredicts(p, targets, nil)
	if mis > 10 {
		t.Errorf("%d late mispredicts with hierarchical IBTB, want <= 10", mis)
	}
	if o.Lookups != int64(len(targets)) {
		t.Errorf("observed %d lookups, want one per prediction (%d)", o.Lookups, len(targets))
	}
	if o.L2Probes <= 0 || o.L2Probes > o.Lookups {
		t.Errorf("observed %d L2 probes in %d lookups, want some", o.L2Probes, o.Lookups)
	}
	// The monolithic configuration reports no lookups and no L2 probes.
	var mono Observation
	m := New(testConfig())
	m.Observe(&mono)
	lateMispredicts(m, targets, nil)
	if mono.Lookups != 0 || mono.L2Probes != 0 {
		t.Errorf("monolithic predictor observed %d lookups, %d L2 probes; want 0, 0", mono.Lookups, mono.L2Probes)
	}
}

// TestObservationCountsCandidates: an attached Observation counts each
// prediction's candidate set, and a detached one (Observe(nil), Reset)
// counts nothing more.
func TestObservationCountsCandidates(t *testing.T) {
	p := New(testConfig())
	var o Observation
	p.Observe(&o)
	if len(o.Candidates) != testConfig().IBTB.Assoc+1 {
		t.Fatalf("Observe sized the histogram to %d buckets, want %d", len(o.Candidates), testConfig().IBTB.Assoc+1)
	}
	// One cold prediction (0 candidates), then predictions with exactly 1.
	predict := func() {
		for i := 0; i < 6; i++ {
			p.Predict(0x500)
			p.Update(0x500, 0x9000)
		}
	}
	predict()
	want := make([]int64, len(o.Candidates))
	want[0], want[1] = 1, 5
	if !slices.Equal(o.Candidates, want) {
		t.Errorf("histogram = %v, want %v (the cold prediction, then five warm)", o.Candidates, want)
	}
	p.Observe(nil)
	predict()
	if !slices.Equal(o.Candidates, want) {
		t.Errorf("after Observe(nil): histogram = %v, want %v unchanged", o.Candidates, want)
	}
	p.Observe(&o)
	p.Reset()
	predict()
	if !slices.Equal(o.Candidates, want) {
		t.Errorf("after Reset: histogram = %v, want %v unchanged", o.Candidates, want)
	}
}

// TestObservationChangesNothing: an observed and an unobserved BLBP driven
// the same way make the same predictions and end with the same Fingerprint
// and byte-identical EncodeState output, on both IBTB kinds.
func TestObservationChangesNothing(t *testing.T) {
	hier := testConfig()
	hier.UseHierarchicalIBTB = true
	for _, cfg := range []Config{testConfig(), hier} {
		plain, observed := New(cfg), New(cfg)
		var o Observation
		observed.Observe(&o)
		rng := rand.New(rand.NewSource(5))
		const n = 4000
		for i := 0; i < n; i++ {
			taken := rng.Intn(2) == 0
			plain.OnCond(0xC04D, taken)
			observed.OnCond(0xC04D, taken)
			pc := 0x400100 + uint64(rng.Intn(4))*0x40
			tgt := 0x7000 + uint64(rng.Intn(8))*0x100
			pa, oka := plain.Predict(pc)
			pb, okb := observed.Predict(pc)
			if pa != pb || oka != okb {
				t.Fatalf("hierarchical=%v: prediction %d differs: (%#x, %v) vs observed (%#x, %v)",
					cfg.UseHierarchicalIBTB, i, pa, oka, pb, okb)
			}
			plain.Update(pc, tgt)
			observed.Update(pc, tgt)
		}
		var total int64
		for _, c := range o.Candidates {
			total += c
		}
		if total != n {
			t.Errorf("hierarchical=%v: histogram counts %d predictions, want %d", cfg.UseHierarchicalIBTB, total, n)
		}
		if plain.Fingerprint() != observed.Fingerprint() {
			t.Errorf("hierarchical=%v: Fingerprint differs when observed", cfg.UseHierarchicalIBTB)
		}
		var a, b bytes.Buffer
		if err := plain.EncodeState(&a); err != nil {
			t.Fatal(err)
		}
		if err := observed.EncodeState(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("hierarchical=%v: EncodeState differs when observed", cfg.UseHierarchicalIBTB)
		}
	}
}

func TestPredictionAlwaysAmongObservedTargets(t *testing.T) {
	// Invariant: BLBP's prediction is always one of the targets previously
	// observed for that branch (it selects from the IBTB candidate set; it
	// never fabricates an address).
	p := New(testConfig())
	rng := rand.New(rand.NewSource(21))
	observed := map[uint64]map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		pc := uint64(0x100 + rng.Intn(6)*0x40)
		if rng.Intn(4) == 0 {
			p.OnCond(0xC04D, rng.Intn(2) == 0)
			continue
		}
		pred, ok := p.Predict(pc)
		if ok && !observed[pc][pred] {
			t.Fatalf("step %d: predicted %#x for pc %#x, never observed (%v)",
				i, pred, pc, observed[pc])
		}
		tgt := uint64(0x1000 + rng.Intn(8)*0x48)
		if observed[pc] == nil {
			observed[pc] = map[uint64]bool{}
		}
		observed[pc][tgt] = true
		p.Update(pc, tgt)
	}
}

func TestSuppressedBitsNeverTrainProperty(t *testing.T) {
	// With UseSelective on and a two-target set differing in exactly one
	// predicted bit, weights for every other bit must stay untouched after
	// both targets are known.
	cfg := testConfig()
	p := New(cfg)
	// Establish both targets first.
	p.Update(0x600, 0x4440)
	p.Update(0x600, 0x4450)
	// Snapshot weights.
	snap := append([]int8(nil), p.weights...)
	for i := 0; i < 500; i++ {
		p.Predict(0x600)
		if i%2 == 0 {
			p.Update(0x600, 0x4440)
		} else {
			p.Update(0x600, 0x4450)
		}
	}
	// Bit 4 - BitOffset = index 2 is the only differing bit; all other
	// bit columns of the touched rows must be unchanged.
	// The flat layout keeps each row's K bit columns contiguous, so the
	// column of flat index j is j % K.
	diffBit := 2
	changedOther := 0
	for j, w := range p.weights {
		if w != snap[j] && j%cfg.K != diffBit {
			changedOther++
		}
	}
	if changedOther != 0 {
		t.Errorf("%d weights outside the differing bit column changed", changedOther)
	}
}
