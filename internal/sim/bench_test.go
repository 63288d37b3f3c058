package sim

import (
	"testing"

	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/predictor"
)

// BenchmarkSimRun drives one full engine pass (hashed perceptron + BLBP)
// over a mixed trace through Run. ns/op is per record.
func BenchmarkSimRun(b *testing.B) {
	const nRec = 1 << 16
	tr := genEquivTrace(1234, nRec, 0x62)
	if err := tr.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += nRec {
		cp := cond.NewHashedPerceptron(cond.DefaultHPConfig())
		if _, err := Run(tr, cp, []predictor.Indirect{core.New(core.DefaultConfig())}, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
