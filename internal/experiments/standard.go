package experiments

// Canonical predictor names used across all experiments.
const (
	NameBTB    = "btb"
	NameVPC    = "vpc"
	NameITTAGE = "ittage"
	NameBLBP   = "blbp"
)

// Conditional configuration keys (see Pass.CondKey). Every pass declaring
// one of these must construct exactly the predictor the key names, so the
// tape-cached conditional simulation is interchangeable across passes and
// drivers.
const (
	// CondKeyHP is cond.NewHashedPerceptron(cond.DefaultHPConfig()).
	CondKeyHP = "hashed-perceptron/default"
	// CondKeyTAGE is cond.NewTAGE(cond.DefaultTAGEConfig()).
	CondKeyTAGE = "tage/default"
)
