package wspec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"blbp/internal/trace"
	"blbp/internal/workload"
)

// traceChecksum hashes a built trace's observable content — per record: PC
// (8 bytes LE), Target (8 bytes LE), InstrBefore (4 bytes LE), and a
// Type/Taken byte — exactly the function that produced
// testdata/suite_golden.json against the closure-built suite before the
// declarative refactor.
func traceChecksum(c *trace.Columns) string {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < c.Len(); i++ {
		r := c.Record(i)
		binary.LittleEndian.PutUint64(b[:], r.PC)
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], r.Target)
		h.Write(b[:])
		binary.LittleEndian.PutUint32(b[:4], r.InstrBefore)
		h.Write(b[:4])
		t := byte(r.Type)
		if r.Taken {
			t |= 0x80
		}
		h.Write([]byte{t})
	}
	return fmt.Sprintf("%016x:%d", h.Sum64(), c.Len())
}

// TestSuitesMatchPreRefactorGolden proves the tentpole's byte-identicality
// claim: every built-in suite entry, compiled from its declarative spec,
// generates exactly the trace the retired closure suite generated
// (checksums in testdata were captured from the pre-refactor code).
func TestSuitesMatchPreRefactorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three full suites")
	}
	raw, err := os.ReadFile("testdata/suite_golden.json")
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("parsing golden file: %v", err)
	}
	check := func(key string, specs []workload.Spec) {
		want := golden[key]
		if len(want) != len(specs) {
			t.Fatalf("%s: golden has %d entries, suite has %d", key, len(want), len(specs))
		}
		for _, s := range specs {
			got := traceChecksum(s.Build())
			if got != want[s.Name] {
				t.Errorf("%s: %s: checksum %s, golden %s", key, s.Name, got, want[s.Name])
			}
		}
	}
	check("suite-6000", Suite(6000))
	check("suite-6000-saltx", SuiteSeeded(6000, "x"))
	check("holdout-6000", SuiteHoldout(6000))
}
