package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// TestReadNeverPanicsOnGarbage feeds random byte strings (with and without
// the BLBPSPL3 magic prefix) to the SPL3 decoder: it must fail cleanly,
// never panic, and never allocate absurd amounts for corrupt length fields.
func TestReadNeverPanicsOnGarbage(t *testing.T) {
	f := func(seed int64, withMagic bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(512)
		data := make([]byte, 0, n+8)
		if withMagic {
			data = append(data, spillMagic[:]...)
		}
		for i := 0; i < n; i++ {
			data = append(data, byte(rng.Intn(256)))
		}
		_, tr, err := ReadSpillColumns(bytes.NewReader(data))
		if err == nil {
			// A random payload can occasionally decode; it must then be a
			// fully valid trace.
			for i := 0; i < tr.Len(); i++ {
				if tr.Record(i).Validate() != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestReadHugeCountRejected: a header record count above 2^32 is rejected
// by the header probe and by the full decode, before any block is read.
func TestReadHugeCountRejected(t *testing.T) {
	// The magic, an empty name, a zero seed, budget and fingerprint, then
	// the smallest record count over the limit.
	data := append(spillMagic[:len(spillMagic):len(spillMagic)], 0, 0, 0, 0)
	data = binary.AppendUvarint(data, 1<<32+1)
	if _, err := ReadSpillHeader(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("header probe of a count of 2^32+1: err = %v, want the limit error", err)
	}
	if _, _, err := ReadSpillColumns(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("decode of a count of 2^32+1: err = %v, want the limit error", err)
	}
}

// TestDecodersLyingRecordCount pins the SPL3 decoder's allocation when a
// header claims 2^24 records but the body holds one valid record. The
// decoder reserves at most 64K records before any block verifies, so the
// decode fails at the missing records having allocated about 0.7 MB;
// reserving the claimed count would commit about 150 MB first.
func TestDecodersLyingRecordCount(t *testing.T) {
	one := columnsOf("x", Record{PC: 0x400000, Target: 0x400020, InstrBefore: 3, Type: CondDirect, Taken: true})
	var spill bytes.Buffer
	if err := WriteSpillColumns(&spill, SpillHeader{Name: one.Name}, one); err != nil {
		t.Fatal(err)
	}
	t.Run("SPL3", func(t *testing.T) {
		// countAt is the offset of the header's one-byte record count:
		// after the magic, the name, and the one-byte seed, instruction
		// budget and fingerprint.
		data, countAt := spill.Bytes(), 8+2+3
		if data[countAt] != 1 {
			t.Fatalf("byte %d of the honest encoding is %#x, not its record count 1", countAt, data[countAt])
		}
		if _, c, err := ReadSpillColumns(bytes.NewReader(data)); err != nil || c.Len() != 1 {
			t.Fatalf("honest one-record input did not decode to one record: %v", err)
		}
		lying := binary.AppendUvarint(append([]byte(nil), data[:countAt]...), 1<<24)
		lying = append(lying, data[countAt+1:]...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadSpillColumns(bytes.NewReader(lying))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Error("a header claiming 2^24 records over one record decoded")
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("decoding the lying header allocated %d bytes (error: %v)", alloc, err)
		if alloc >= 4<<20 {
			t.Errorf("decoding the lying header allocated %d bytes, want < 4 MB", alloc)
		}
	})
}

// FuzzTraceRoundTrip drives the SPL3 encoder and decoder together: fuzz
// bytes are shaped into an arbitrary-but-valid trace, and WriteSpillColumns
// -> ReadSpillColumns -> WriteSpillColumns must reproduce the header, the
// records and the exact encoded bytes.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add("w", []byte{})
	f.Add("loop", []byte{
		0x00, 0x40, 0x00, 0x00, 0x20, 0x40, 0x00, 0x00, 0x03, 0x00, 0x09,
		0x00, 0x40, 0x01, 0x00, 0x00, 0x00, 0x7f, 0x00, 0x0c, 0x00, 0x03,
	})
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		if len(name) > 1<<12 {
			name = name[:1<<12]
		}
		tr := NewColumns(name, len(data)/11)
		for len(data) >= 11 {
			chunk := data[:11]
			data = data[11:]
			var pc, target uint64
			for i := 0; i < 4; i++ {
				pc |= uint64(chunk[i]) << (8 * i)
				target |= uint64(chunk[4+i]) << (8 * i)
			}
			typ := BranchType(chunk[10] % numBranchTypes)
			taken := chunk[10]&0x40 != 0
			if !typ.IsConditional() {
				taken = true // Validate requires unconditional types taken
			}
			tr.Append(Record{
				PC:          pc,
				Target:      target,
				InstrBefore: uint32(chunk[8]) | uint32(chunk[9])<<8,
				Type:        typ,
				Taken:       taken,
			})
		}
		hdr := SpillHeader{Name: name, Instructions: tr.Instructions(), Records: int64(tr.Len())}
		var enc bytes.Buffer
		if err := WriteSpillColumns(&enc, hdr, tr); err != nil {
			t.Fatalf("encoding a valid trace failed: %v", err)
		}
		h, got, err := ReadSpillColumns(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoding failed: %v", err)
		}
		if h != hdr {
			t.Fatalf("round trip changed the header: %+v -> %+v", hdr, h)
		}
		if got.Name != tr.Name || got.Len() != tr.Len() {
			t.Fatalf("round trip changed shape: name %q->%q, records %d->%d",
				tr.Name, got.Name, tr.Len(), got.Len())
		}
		for i := 0; i < tr.Len(); i++ {
			if got.Record(i) != tr.Record(i) {
				t.Fatalf("record %d changed in round trip: %+v -> %+v", i, tr.Record(i), got.Record(i))
			}
		}
		var re bytes.Buffer
		if err := WriteSpillColumns(&re, h, got); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), re.Bytes()) {
			t.Fatal("re-encoded bytes differ from the original encoding")
		}
	})
}
