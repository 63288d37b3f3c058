package tracecache

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"blbp/internal/trace"
	"blbp/internal/workload"
)

// fuzzSeedFile encodes a small valid spill file (header + payload).
func fuzzSeedFile(f *testing.F) []byte {
	f.Helper()
	tr := trace.NewColumns("seed", 0)
	tr.Append(trace.Record{PC: 0x400000, Target: 0x400020, InstrBefore: 3, Type: trace.CondDirect, Taken: true})
	tr.Append(trace.Record{PC: 0x400100, Target: 0x7f0000, InstrBefore: 12, Type: trace.IndirectCall, Taken: true})
	var buf bytes.Buffer
	if err := trace.WriteSpillColumns(&buf, trace.SpillHeader{Name: "seed", Seed: 11, Instructions: 4_000}, tr); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSpillDecode feeds arbitrary bytes to the spill reader: readSpillFile
// must either fail cleanly or produce a header-consistent, fully valid
// trace that survives a re-spill round trip under the identity the header
// claims. This is the path a truncated, corrupted, or stale spill file
// from a previous process takes on the next cache warm-start.
func FuzzSpillDecode(f *testing.F) {
	valid := fuzzSeedFile(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-1]) // truncated payload
	f.Add(valid[:12])           // truncated header
	// The pre-header format: a bare trace payload. Must be rejected as
	// not-a-spill, never decoded as one.
	var bare bytes.Buffer
	bareTr := trace.NewColumns("bare", 0)
	bareTr.Append(trace.Record{PC: 0x400000, Target: 0x400020, InstrBefore: 1, Type: trace.CondDirect, Taken: true})
	if err := trace.Write(&bare, bareTr); err != nil {
		f.Fatal(err)
	}
	f.Add(bare.Bytes())
	// A header claiming 2^32 records whose first block claims 2^32 records
	// in 2^32 bytes: must be rejected on the block bound, before the reader
	// allocates the claimed payload.
	huge := append([]byte("BLBPSPL3"), 3, 'b', 'i', 'g', 0, 0, 0)
	for i := 0; i < 3; i++ {
		huge = binary.AppendUvarint(huge, 1<<32)
	}
	f.Add(append(huge, make([]byte, 8)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz"+spillExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		h, got, err := readSpillFile(path)
		if err != nil {
			return // corrupt spills must fail cleanly, and did
		}
		if vErr := got.Validate(); vErr != nil {
			t.Fatalf("readSpillFile accepted an invalid trace: %v", vErr)
		}
		if got.Name != h.Name || int64(got.Len()) != h.Records {
			t.Fatalf("accepted payload disagrees with header: %q/%d vs %q/%d",
				got.Name, got.Len(), h.Name, h.Records)
		}
		// A loaded spill must be re-spillable under its header identity and
		// reload identically through the full identity-validated path.
		id := workload.Identity{Name: h.Name, Seed: h.Seed, Instructions: h.Instructions}
		again := filepath.Join(dir, "again"+spillExt)
		if err := writeSpill(again, id, got); err != nil {
			t.Fatalf("re-spill of a loaded trace failed: %v", err)
		}
		back, err := loadSpill(again, id)
		if err != nil {
			t.Fatalf("reloading a re-spilled trace failed: %v", err)
		}
		if back.Name != got.Name || back.Len() != got.Len() {
			t.Fatalf("spill round trip changed shape: %q/%d -> %q/%d",
				got.Name, got.Len(), back.Name, back.Len())
		}
	})
}
