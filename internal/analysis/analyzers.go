package analysis

// All returns every BLBP invariant analyzer in the order blbplint runs
// them.
func All() []*Analyzer {
	return []*Analyzer{Determinism, HWBudget, SatWeights, Atomics, HotAlloc}
}
