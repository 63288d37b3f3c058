// Package vpc implements Kim et al.'s Virtual Program Counter predictor
// (ISCA 2007), the paper's hardware-devirtualization baseline. VPC treats a
// polymorphic indirect branch with T targets as T virtual direct branches:
// it probes the conditional branch predictor with a sequence of virtual PCs,
// and the first virtual branch predicted taken supplies its BTB target as
// the prediction.
//
// As in the paper's evaluation (§4.2), VPC shares one central conditional
// predictor with normal conditional branches — here the hashed perceptron —
// so heavy indirect traffic measurably perturbs conditional accuracy. Pair a
// VPC instance with the same *cond.HashedPerceptron the engine uses for
// conditional branches; VPC's OnCond/OnOther are deliberate no-ops to avoid
// double-counting history the engine already routed to that predictor.
package vpc

import (
	"blbp/internal/btb"
	"blbp/internal/cond"
	"blbp/internal/hashing"
	"blbp/internal/history"
	"blbp/internal/trace"
)

// Config parameterizes a VPC predictor.
type Config struct {
	// MaxIter bounds the virtual iteration walk (Kim et al. explore
	// 10-12; 12 by default).
	MaxIter int
	// BTB is the target-store geometry (32K-entry direct-mapped in the
	// paper's Table 2).
	BTB btb.Config
}

// DefaultConfig returns the paper's VPC setup.
func DefaultConfig() Config {
	return Config{MaxIter: 12, BTB: btb.Default32K()}
}

// VPC is the predictor.
type VPC struct {
	cfg Config
	hp  *cond.HashedPerceptron
	btb *btb.BTB

	scratchVPCA []uint64
	snapBuf     history.FoldedSnapshot // reused across predictions
}

// New constructs a VPC predictor over the given shared conditional
// predictor.
func New(cfg Config, hp *cond.HashedPerceptron) *VPC {
	if cfg.MaxIter <= 0 || cfg.MaxIter > 64 {
		panic("vpc: MaxIter out of range")
	}
	if hp == nil {
		panic("vpc: nil conditional predictor")
	}
	return &VPC{
		cfg:         cfg,
		hp:          hp,
		btb:         btb.New(cfg.BTB),
		scratchVPCA: make([]uint64, 0, cfg.MaxIter),
	}
}

// Name implements predictor.Indirect.
func (v *VPC) Name() string { return "vpc" }

// vpcAddr returns the virtual PC for iteration i (1-based); iteration 1 is
// the real branch PC.
func (v *VPC) vpcAddr(pc uint64, iter int) uint64 {
	if iter == 1 {
		return pc
	}
	return hashing.Combine(pc, uint64(iter)*0x8c6d)
}

// Predict implements predictor.Indirect: walk virtual PCs, asking the
// shared conditional predictor whether each virtual branch is taken; the
// first taken virtual branch with a BTB target wins. Global history is
// speculatively extended with the virtual not-taken outcomes during the walk
// and rolled back before returning.
func (v *VPC) Predict(pc uint64) (uint64, bool) {
	v.hp.HistSnapshotInto(&v.snapBuf)
	defer v.hp.HistRestore(&v.snapBuf)
	for iter := 1; iter <= v.cfg.MaxIter; iter++ {
		vpca := v.vpcAddr(pc, iter)
		target, hit := v.btb.Lookup(vpca)
		if !hit {
			// No more stored targets along the virtual chain.
			return 0, false
		}
		if v.hp.Predict(vpca) {
			return target, true
		}
		v.hp.SpecShift(false)
	}
	return 0, false
}

// Update implements predictor.Indirect: replay the virtual walk, training
// the shared conditional predictor not-taken for virtual branches before
// the one holding the actual target and taken at it, then commit the
// virtual outcomes to history (Kim et al.'s update algorithm). If no
// virtual branch holds the actual target, it is installed at the first free
// (or final) iteration slot.
func (v *VPC) Update(pc, actual uint64) {
	vpcas := v.scratchVPCA[:0]
	foundIter := 0
	for iter := 1; iter <= v.cfg.MaxIter; iter++ {
		vpca := v.vpcAddr(pc, iter)
		vpcas = append(vpcas, vpca)
		target, hit := v.btb.Lookup(vpca)
		if hit && target == actual {
			foundIter = iter
			break
		}
		if !hit {
			break
		}
	}
	v.scratchVPCA = vpcas[:0]

	if foundIter == 0 {
		// Not stored anywhere along the walk: allocate at the least
		// recently used virtual-PC slot among the walked iterations (Kim
		// et al.'s insertion rule) and treat it as the taken virtual
		// branch. A miss-terminated walk ends on an empty slot, which has
		// recency 0 and wins automatically.
		best, bestStamp := len(vpcas), v.btb.SlotRecency(vpcas[len(vpcas)-1])
		for i := len(vpcas) - 2; i >= 0; i-- {
			if s := v.btb.SlotRecency(vpcas[i]); s < bestStamp {
				best, bestStamp = i+1, s
			}
		}
		foundIter = best
	}

	for i, vpca := range vpcas[:foundIter] {
		iter := i + 1
		taken := iter == foundIter
		v.hp.Train(vpca, taken)
		v.hp.UpdateHistory(vpca, taken)
	}
	// Install the target in the allocate case; refresh the providing entry
	// otherwise (both are a last-taken update of the taken virtual PC).
	v.btb.Update(vpcas[foundIter-1], actual)
}

// OnCond implements predictor.Indirect as a no-op: the engine already
// routes conditional outcomes to the shared hashed perceptron.
func (v *VPC) OnCond(pc uint64, taken bool) {}

// OnOther implements predictor.Indirect as a no-op for the same reason.
func (v *VPC) OnOther(pc, target uint64, bt trace.BranchType) {}

// Reset restores the freshly constructed state of VPC's own structure, the
// BTB. The shared conditional predictor is left alone; whoever owns it (the
// pass, which hands it to the engine too) resets it alongside.
func (v *VPC) Reset() { v.btb.Reset() }

// Cond returns the shared conditional predictor.
func (v *VPC) Cond() *cond.HashedPerceptron { return v.hp }

// StorageBits implements predictor.Indirect: the BTB plus the shared
// conditional predictor (Table 2 charges VPC for both, 128 KB total).
func (v *VPC) StorageBits() int {
	return v.btb.StorageBits() + v.hp.StorageBits()
}
