package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"blbp/internal/combined"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/ittage"
	"blbp/internal/predictor"
	"blbp/internal/trace"
)

// genEquivTrace synthesizes a valid trace covering all six branch types.
// shape's high nibble biases the expected same-class run length (so fuzzing
// explores both long homogeneous segments and pathological per-record
// alternation) and its low bits perturb the PC/target pools.
func genEquivTrace(seed int64, n int, shape uint8) *trace.Columns {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.NewColumns("fuzz", 0)
	runBias := int(shape>>4) + 1 // 1..16: expected run length
	pcSpan := uint64(shape&0xF) + 4
	last := trace.CondDirect
	for i := 0; i < n; i++ {
		bt := last
		if rng.Intn(runBias) == 0 {
			bt = trace.BranchType(rng.Intn(6))
		}
		last = bt
		pc := 0x1000 + uint64(rng.Intn(int(pcSpan)))*4
		target := 0x8000 + uint64(rng.Intn(16))*8
		taken := true
		if bt == trace.CondDirect {
			taken = rng.Intn(2) == 0
			target = pc + 4
			if taken {
				target = pc + 0x20
			}
		}
		tr.Append(trace.Record{
			PC: pc, Target: target, InstrBefore: uint32(rng.Intn(20)),
			Type: bt, Taken: taken,
		})
	}
	return tr
}

// wideEquivTrace is genEquivTrace with record i's gap raised by 32·i, so
// every record is distinct: past 65,536 records the trace's index column
// is 4 bytes wide.
func wideEquivTrace(seed int64, n int, shape uint8) *trace.Columns {
	base := genEquivTrace(seed, n, shape)
	tr := trace.NewColumns("fuzz-wide", n)
	for i := 0; i < n; i++ {
		r := base.Record(i)
		r.InstrBefore += uint32(i) * 32
		tr.Append(r)
	}
	return tr
}

// equivPredictors builds one fresh suite-shaped pass: a hashed perceptron
// driving ITTAGE and BLBP.
func equivPredictors() (cond.Predictor, []predictor.Indirect) {
	return cond.NewHashedPerceptron(cond.DefaultHPConfig()), []predictor.Indirect{
		ittage.New(ittage.DefaultConfig()),
		core.New(core.DefaultConfig()),
	}
}

// checkEquivalence is the differential gate for the segmented replay path:
// for one generated trace, the engine (Run), the shared-tape replay, the
// consolidated predictor, and the spill round trip through the columnar
// decoder must all reproduce the record-at-a-time oracle (referenceRun)
// bit for bit — every Result field, all six branch types, predictions
// included. seed names the trace in failures and its spill header.
func checkEquivalence(t *testing.T, seed int64, tr *trace.Columns) {
	t.Helper()

	cpRef, ipsRef := equivPredictors()
	ref, err := referenceRun(tr, cpRef, ipsRef, Options{})
	if err != nil {
		t.Fatal(err)
	}

	cpRun, ipsRun := equivPredictors()
	got, err := Run(tr, cpRun, ipsRun, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("seed %d: Run diverged:\n got %+v\nwant %+v", seed, got, ref)
	}

	// Shared-tape replay under a cond key (segment loop interchange + span
	// feeding) must match too.
	tape, err := NewTape(tr)
	if err != nil {
		t.Fatal(err)
	}
	cpTape, ipsTape := equivPredictors()
	tapeRes, err := tape.Run("hp", cpTape, ipsTape, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tapeRes, ref) {
		t.Fatalf("seed %d: tape replay diverged:\n got %+v\nwant %+v", seed, tapeRes, ref)
	}

	// The consolidated predictor shares state between the conditional and
	// indirect sides (and trains with targets), so it pins down the
	// within-segment call ordering and the TargetTrainer hoist.
	ccRef := combined.New(core.DefaultConfig())
	refC, err := referenceRun(tr, ccRef, []predictor.Indirect{ccRef.Indirect()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ccRun := combined.New(core.DefaultConfig())
	gotC, err := Run(tr, ccRun, []predictor.Indirect{ccRun.Indirect()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotC, refC) {
		t.Fatalf("seed %d: Run (consolidated) diverged:\n got %+v\nwant %+v", seed, gotC, refC)
	}

	// Spill round trip: decoding through the columnar fast path must
	// reproduce every record and the same replay results. (The encoded
	// bytes themselves are pinned by the trace package's golden test.)
	h := trace.SpillHeader{Name: tr.Name, Seed: seed, Instructions: tr.Instructions()}
	var spill bytes.Buffer
	if err := trace.WriteSpillColumns(&spill, h, tr); err != nil {
		t.Fatal(err)
	}
	_, cols, err := trace.ReadSpillColumns(bytes.NewReader(spill.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if cols.Len() != tr.Len() {
		t.Fatalf("seed %d: spill decode: %d records, want %d", seed, cols.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if cols.Record(i) != tr.Record(i) {
			t.Fatalf("seed %d: spill decode record %d = %+v, want %+v", seed, i, cols.Record(i), tr.Record(i))
		}
	}
	cpSp, ipsSp := equivPredictors()
	spRes, err := Run(cols, cpSp, ipsSp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spRes, ref) {
		t.Fatalf("seed %d: replay of spill-decoded columns diverged:\n got %+v\nwant %+v", seed, spRes, ref)
	}
}

// FuzzColumnarEquivalence runs checkEquivalence on fuzzed trace shapes.
func FuzzColumnarEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(0x22))
	f.Add(int64(7), uint16(50), uint8(0xF1))
	f.Add(int64(42), uint16(900), uint8(0x08))
	f.Add(int64(-3), uint16(64), uint8(0x00))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8) {
		if nRec := int(n) % 2048; nRec > 0 {
			checkEquivalence(t, seed, genEquivTrace(seed, nRec, shape))
		}
	})
}

// TestColumnarEquivalenceSeeds runs the differential on the fuzz seed
// corpus (plus two edge shapes) so `go test` exercises it without the fuzz
// engine, and on a trace of 70,000 distinct records, whose index column
// widens to 4 bytes at record 65,536: past the fuzz target's 2,048-record
// cap, so it has its own size.
func TestColumnarEquivalenceSeeds(t *testing.T) {
	cases := []struct {
		seed  int64
		n     uint16
		shape uint8
	}{
		{1, 300, 0x22}, {7, 50, 0xF1}, {42, 900, 0x08}, {-3, 64, 0x00},
		{99, 2047, 0x71}, {5, 1, 0x30},
	}
	for _, c := range cases {
		checkEquivalence(t, c.seed, genEquivTrace(c.seed, int(c.n)%2048, c.shape))
	}
	checkEquivalence(t, 11, wideEquivTrace(11, 70_000, 0x22))
}
