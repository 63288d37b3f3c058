package sim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"blbp/internal/combined"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/predictor"
	"blbp/internal/snapshot"
)

// The tests below are the tentpole's differential gate: a pass interrupted
// at an arbitrary record, snapshotted (engine state + every predictor's
// warm state), restored into fresh instances, and resumed must be
// bit-identical to an uninterrupted run — same Results and same final
// predictor state bytes.

const testSnapName = "simtest"
const testSnapFingerprint = 0x73696d74657374 // arbitrary; the pass owns it
const maxNestedSnap = 1 << 28

// passPredictors builds one fresh pass of the named kind.
func passPredictors(kind string) (cond.Predictor, []predictor.Indirect) {
	switch kind {
	case "suite": // hashed perceptron driving ITTAGE and BLBP
		return equivPredictors()
	case "consolidated": // §6 combined structure serving both roles
		p := combined.New(core.DefaultConfig())
		return p, []predictor.Indirect{p.Indirect()}
	}
	panic("unknown pass kind " + kind)
}

// snapshotPass serializes a paused pass — engine state plus the warm state
// of the conditional and every indirect predictor — into one container.
func snapshotPass(t *testing.T, pr *PausedRun, cp cond.Predictor, indirects []predictor.Indirect) []byte {
	t.Helper()
	c := snapshot.NewContainer(testSnapName, testSnapFingerprint)
	pr.EncodeState(c.Section("run"))
	c.Section("cond").Bytes(encodeStateBytes(t, cp))
	for i, ip := range indirects {
		c.Section(fmt.Sprintf("ind%d", i)).Bytes(encodeStateBytes(t, ip))
	}
	var out bytes.Buffer
	if err := c.EncodeTo(&out); err != nil {
		t.Fatalf("encoding pass container: %v", err)
	}
	return out.Bytes()
}

func encodeStateBytes(t *testing.T, v any) []byte {
	t.Helper()
	s, ok := predictor.AsSnapshotter(v)
	if !ok {
		t.Fatalf("%T does not implement Snapshotter", v)
	}
	var buf bytes.Buffer
	if err := s.EncodeState(&buf); err != nil {
		t.Fatalf("encoding %T state: %v", v, err)
	}
	return buf.Bytes()
}

// restorePass reinstates a snapshotPass blob into fresh predictors and
// returns the resumable engine state.
func restorePass(blob []byte, cp cond.Predictor, indirects []predictor.Indirect) (*PausedRun, error) {
	dec, err := snapshot.ReadContainer(bytes.NewReader(blob), testSnapName, testSnapFingerprint)
	if err != nil {
		return nil, err
	}
	rd, err := dec.Section("run")
	if err != nil {
		return nil, err
	}
	pr, err := RestorePausedRun(rd)
	if err != nil {
		return nil, err
	}
	if err := rd.Finish(); err != nil {
		return nil, err
	}
	restoreOne := func(kind string, v any) error {
		sd, err := dec.Section(kind)
		if err != nil {
			return err
		}
		nested := sd.BytesMax(maxNestedSnap)
		if err := sd.Finish(); err != nil {
			return err
		}
		s, ok := predictor.AsSnapshotter(v)
		if !ok {
			return fmt.Errorf("%T does not implement Snapshotter", v)
		}
		return s.RestoreState(bytes.NewReader(nested))
	}
	if err := restoreOne("cond", cp); err != nil {
		return nil, err
	}
	for i, ip := range indirects {
		if err := restoreOne(fmt.Sprintf("ind%d", i), ip); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

func TestSnapshotRestoreSplits(t *testing.T) {
	const nRec = 1200
	cols := genEquivTrace(11, nRec, 0x42)
	// Split points: before any event, pre-warmup, mid-run, post-warmup, and
	// the degenerate snapshot-at-end.
	splits := []int{0, 7, nRec / 2, nRec - 3, nRec}
	for _, kind := range []string{"suite", "consolidated"} {
		cpRef, ipsRef := passPredictors(kind)
		ref, err := Run(cols, cpRef, ipsRef, Options{})
		if err != nil {
			t.Fatal(err)
		}
		refCondState := encodeStateBytes(t, cpRef)
		for _, split := range splits {
			cpA, ipsA := passPredictors(kind)
			pr, err := RunColumnsUntil(cols, cpA, ipsA, Options{}, split)
			if err != nil {
				t.Fatalf("%s split %d: until: %v", kind, split, err)
			}
			if pr.Next() != split {
				t.Fatalf("%s split %d: paused at %d", kind, split, pr.Next())
			}
			blob := snapshotPass(t, pr, cpA, ipsA)

			cpB, ipsB := passPredictors(kind)
			prB, err := restorePass(blob, cpB, ipsB)
			if err != nil {
				t.Fatalf("%s split %d: restore: %v", kind, split, err)
			}
			got, err := ResumeColumns(cols, cpB, ipsB, prB)
			if err != nil {
				t.Fatalf("%s split %d: resume: %v", kind, split, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s split %d: resumed results diverged:\n got %+v\nwant %+v", kind, split, got, ref)
			}
			// Final-state fingerprint: the resumed predictors must encode
			// byte-identically to the uninterrupted twins.
			if !bytes.Equal(encodeStateBytes(t, cpB), refCondState) {
				t.Errorf("%s split %d: resumed conditional state differs from uninterrupted run", kind, split)
			}
			for i := range ipsB {
				if !bytes.Equal(encodeStateBytes(t, ipsB[i]), encodeStateBytes(t, ipsRef[i])) {
					t.Errorf("%s split %d: resumed indirect %d state differs from uninterrupted run", kind, split, i)
				}
			}
		}
	}
}

// TestSnapshotRejectsDamage: any truncation or single-bit flip of a pass
// snapshot must fail restore — the per-section checksums cover every
// payload byte and the header fields are all semantic.
func TestSnapshotRejectsDamage(t *testing.T) {
	const nRec = 600
	cols := genEquivTrace(23, nRec, 0x31)
	cpA, ipsA := passPredictors("suite")
	pr, err := RunColumnsUntil(cols, cpA, ipsA, Options{}, 300)
	if err != nil {
		t.Fatal(err)
	}
	blob := snapshotPass(t, pr, cpA, ipsA)

	for _, n := range []int{0, 1, 7, 8, len(blob) / 3, len(blob) / 2, len(blob) - 1} {
		cpB, ipsB := passPredictors("suite")
		if _, err := restorePass(blob[:n], cpB, ipsB); err == nil {
			t.Errorf("restore of %d-byte truncation succeeded", n)
		}
	}
	step := len(blob)/97 + 1
	for off := 0; off < len(blob); off += step {
		flipped := append([]byte(nil), blob...)
		flipped[off] ^= 0x40
		cpB, ipsB := passPredictors("suite")
		if _, err := restorePass(flipped, cpB, ipsB); err == nil {
			t.Errorf("restore with bit flip at offset %d succeeded", off)
		}
	}
}

// TestRestorePausedRunBoundsRASCapacity: a run section whose RAS
// capacity, the count prefix of the stack's address slots, is not in
// (0, maxRASCapacity] fails restore as corrupt before any stack is
// allocated, however large the count.
func TestRestorePausedRunBoundsRASCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1, maxRASCapacity + 1, 1 << 40} {
		c := snapshot.NewContainer(testSnapName, testSnapFingerprint)
		e := c.Section("run")
		e.Int(0)
		e.Int(capacity)
		var buf bytes.Buffer
		if err := c.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		dec, err := snapshot.ReadContainer(bytes.NewReader(buf.Bytes()), testSnapName, testSnapFingerprint)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := dec.Section("run")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = RestorePausedRun(rd)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("capacity %d: restore error %v, want ErrCorrupt", capacity, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("capacity %d: restore allocated %d bytes before failing", capacity, alloc)
		}
	}
}

// FuzzSnapshotRoundTrip is the fuzzing face of the differential gate, in
// the style of FuzzSpillDecode/FuzzColumnarEquivalence: arbitrary traces,
// arbitrary split fractions, both pass kinds.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(0x22), uint8(128))
	f.Add(int64(7), uint16(50), uint8(0xF1), uint8(0))
	f.Add(int64(42), uint16(900), uint8(0x08), uint8(255))
	f.Add(int64(-3), uint16(64), uint8(0x00), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8, splitFrac uint8) {
		nRec := int(n) % 2048
		if nRec == 0 {
			return
		}
		cols := genEquivTrace(seed, nRec, shape)
		split := nRec * int(splitFrac) / 255
		for _, kind := range []string{"suite", "consolidated"} {
			cpRef, ipsRef := passPredictors(kind)
			ref, err := Run(cols, cpRef, ipsRef, Options{})
			if err != nil {
				t.Fatal(err)
			}
			cpA, ipsA := passPredictors(kind)
			pr, err := RunColumnsUntil(cols, cpA, ipsA, Options{}, split)
			if err != nil {
				t.Fatal(err)
			}
			blob := snapshotPass(t, pr, cpA, ipsA)
			cpB, ipsB := passPredictors(kind)
			prB, err := restorePass(blob, cpB, ipsB)
			if err != nil {
				t.Fatalf("%s split %d: restore: %v", kind, split, err)
			}
			got, err := ResumeColumns(cols, cpB, ipsB, prB)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s split %d: resumed results diverged:\n got %+v\nwant %+v", kind, split, got, ref)
			}
			if !bytes.Equal(encodeStateBytes(t, cpB), encodeStateBytes(t, cpRef)) {
				t.Fatalf("%s split %d: resumed conditional state differs", kind, split)
			}
			for i := range ipsB {
				if !bytes.Equal(encodeStateBytes(t, ipsB[i]), encodeStateBytes(t, ipsRef[i])) {
					t.Fatalf("%s split %d: resumed indirect %d state differs", kind, split, i)
				}
			}
		}
	})
}
