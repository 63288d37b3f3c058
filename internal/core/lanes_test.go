package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// withSubPredictors returns c widened to n sub-predictors: n-1 one-bit
// history intervals and as many GEHL lengths, all inside the default
// history.
func withSubPredictors(c Config, n int) Config {
	c.Intervals = make([]Interval, n-1)
	c.GEHLLengths = make([]int, n-1)
	for i := range c.Intervals {
		c.Intervals[i] = Interval{Lo: i, Hi: i}
		c.GEHLLengths[i] = i + 1
	}
	return c
}

// TestSaturatedLanesMatchIntSums runs the packed kernels at the worst case
// the lane bound admits: maxSubPredictors sub-predictors with every weight
// at ±wMax. sumRows plus unpackYout must reproduce the plain int sum of the
// transferred weights for every bit, so no lane carried into its neighbor,
// and similarity must equal the int sum over each candidate's selected
// bits. K=12 runs similarity's unrolled three-word branch, K=32 its generic
// loop; 8-bit weights without the transfer function fill each lane to
// 256 × 254 = 65,024.
func TestSaturatedLanesMatchIntSums(t *testing.T) {
	signs := []struct {
		name string
		sign func(row, k int) int8
	}{
		{"plus", func(int, int) int8 { return 1 }},
		{"minus", func(int, int) int8 { return -1 }},
		{"mixed", func(row, k int) int8 { return int8(1 - 2*((row+k)%2)) }},
	}
	rng := rand.New(rand.NewSource(7))
	for _, wb := range []int{4, int(maxWeightBits)} {
		for _, useTransfer := range []bool{true, false} {
			for _, k := range []int{12, 32} {
				cfg := withSubPredictors(DefaultConfig(), int(maxSubPredictors))
				cfg.WeightBits, cfg.UseTransfer, cfg.K, cfg.TableEntries = wb, useTransfer, k, 4
				p := New(cfg)
				wMin := -int(p.wMax)
				for _, s := range signs {
					name := fmt.Sprintf("wb=%d/transfer=%v/K=%d/%s", wb, useTransfer, k, s.name)
					for i := range p.weights {
						row, bit := i/k, i%k
						w := s.sign(row, bit) * p.wMax
						p.weights[i] = w
						p.setLane(row*p.wordsPerRow, bit, p.transfer[int(w)-wMin])
					}
					p.computeRows(0x400000)
					p.sumRows()
					p.unpackYout(p.acc[:p.wordsPerRow])
					want := make([]int, k)
					for bit := range want {
						for _, base := range p.rowOff {
							want[bit] += p.transfer[int(p.weights[base+bit])-wMin]
						}
						if p.yout[bit] != want[bit] {
							t.Fatalf("%s: yout[%d] = %d, want int sum %d", name, bit, p.yout[bit], want[bit])
						}
					}
					masks := []uint64{p.kMask, 0x5555_5555, 0xaaaa_aaaa, 1, 1 << (k - 1)}
					for i := 0; i < 8; i++ {
						masks = append(masks, rng.Uint64())
					}
					for _, suppress := range []uint64{0, 0x00ff_00ff & p.kMask} {
						p.suppressMask = suppress
						for _, cand := range masks {
							sel := cand &^ suppress & p.kMask
							sum := 0
							for bit := range want {
								if sel>>uint(bit)&1 == 1 {
									sum += want[bit]
								}
							}
							if got := p.similarity(cand); got != sum {
								t.Fatalf("%s: similarity(%#x) with suppress %#x = %d, want int sum %d", name, cand, suppress, got, sum)
							}
						}
					}
				}
			}
		}
	}
}

// TestPackedImageMatchesWeights cross-checks the invariant the batched sums
// rely on: after arbitrary training, every packed 16-bit lane equals
// transfer(weight) + laneBias, and a serial prediction's yout equals the
// naive transferred-weight sum.
func TestPackedImageMatchesWeights(t *testing.T) {
	p, _ := benchStream(4096)
	wMin := -int(p.wMax)
	for i := range p.weights {
		row := i / p.cfg.K
		k := i % p.cfg.K
		want := uint64(p.transfer[int(p.weights[i])-wMin] + p.laneBias)
		word := p.pweights[row*p.wordsPerRow+k/lanesPerWord]
		got := word >> (uint(k%lanesPerWord) * laneBits) & laneMask
		if got != want {
			t.Fatalf("packed lane (row %d, bit %d) = %d, want %d (weight %d)", row, k, got, want, p.weights[i])
		}
	}
	// Padding lanes must stay at the bias so whole-word adds are exact.
	for r := 0; r < len(p.pweights)/p.wordsPerRow; r++ {
		for k := p.cfg.K; k < p.wordsPerRow*lanesPerWord; k++ {
			word := p.pweights[r*p.wordsPerRow+k/lanesPerWord]
			if got := word >> (uint(k%lanesPerWord) * laneBits) & laneMask; got != uint64(p.laneBias) {
				t.Fatalf("padding lane (row %d, lane %d) = %d, want bias %d", r, k, got, p.laneBias)
			}
		}
	}

	p.prepare(0x400000)
	p.sumRows()
	p.unpackYout(p.acc[:p.wordsPerRow])
	for k := 0; k < p.cfg.K; k++ {
		want := 0
		for _, base := range p.rowOff {
			want += p.transfer[int(p.weights[base+k])-wMin]
		}
		if p.yout[k] != want {
			t.Fatalf("yout[%d] = %d, want naive sum %d", k, p.yout[k], want)
		}
	}
}

// TestResetRestoresFreshState trains a predictor, Resets it, and requires
// its behavior and fingerprint to match a freshly constructed one over a
// new workload — the property slot recycling in internal/batch depends on.
func TestResetRestoresFreshState(t *testing.T) {
	recycled, _ := benchStream(4096)
	recycled.Reset()
	fresh := New(DefaultConfig())
	if recycled.Fingerprint() != fresh.Fingerprint() {
		t.Fatalf("fingerprints differ immediately after Reset")
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		if rng.Intn(4) != 0 {
			pc := 0x600000 + uint64(rng.Intn(64))*4
			taken := rng.Intn(3) != 0
			recycled.OnCond(pc, taken)
			fresh.OnCond(pc, taken)
			continue
		}
		pc := 0x700000 + uint64(rng.Intn(6))*0x40
		target := 0x800000 + uint64(rng.Intn(8))*8
		gt, gok := recycled.Predict(pc)
		wt, wok := fresh.Predict(pc)
		if gt != wt || gok != wok {
			t.Fatalf("event %d: recycled (%#x,%v) != fresh (%#x,%v)", i, gt, gok, wt, wok)
		}
		recycled.Update(pc, target)
		fresh.Update(pc, target)
	}
	if recycled.Fingerprint() != fresh.Fingerprint() {
		t.Fatalf("fingerprints diverged after identical post-Reset workload")
	}
}
