package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// TestReadNeverPanicsOnGarbage feeds random byte strings (with and without
// a valid magic prefix) to the decoder: it must fail cleanly, never panic,
// and never allocate absurd amounts for corrupt length fields.
func TestReadNeverPanicsOnGarbage(t *testing.T) {
	f := func(seed int64, withMagic bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(512)
		data := make([]byte, 0, n+8)
		if withMagic {
			data = append(data, magic[:]...)
		}
		for i := 0; i < n; i++ {
			data = append(data, byte(rng.Intn(256)))
		}
		tr, err := Read(bytes.NewReader(data))
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

// TestReadHugeCountRejected ensures corrupt record counts are rejected
// before allocation.
func TestReadHugeCountRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(0) // empty name
	// A varint encoding an enormous record count.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	if _, err := Read(&buf); err == nil {
		t.Error("absurd record count accepted")
	}
}

// TestDecodersLyingRecordCount pins both trace decoders' allocation when a
// header claims 2^24 records but the body holds one valid record. Each
// decoder reserves at most 64K records before any record verifies, so the
// decode fails at the missing second record having allocated about 1.4 MB;
// reserving the claimed count would commit about 350 MB first.
func TestDecodersLyingRecordCount(t *testing.T) {
	one := columnsOf("x", Record{PC: 0x400000, Target: 0x400020, InstrBefore: 3, Type: CondDirect, Taken: true})
	var plain, spill bytes.Buffer
	if err := Write(&plain, one); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpillColumns(&spill, SpillHeader{Name: one.Name}, one); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		// countAt is the offset of the header's one-byte record count:
		// after the magic and the name, and for SPL3 the one-byte seed,
		// instruction budget and fingerprint.
		countAt int
		decode  func([]byte) (*Columns, error)
	}{
		{"BLBPTRC1", plain.Bytes(), 8 + 2, func(b []byte) (*Columns, error) { return Read(bytes.NewReader(b)) }},
		{"SPL3", spill.Bytes(), 8 + 2 + 3, func(b []byte) (*Columns, error) {
			_, c, err := ReadSpillColumns(bytes.NewReader(b))
			return c, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.data[tc.countAt] != 1 {
				t.Fatalf("byte %d of the honest encoding is %#x, not its record count 1", tc.countAt, tc.data[tc.countAt])
			}
			if c, err := tc.decode(tc.data); err != nil || c.Len() != 1 {
				t.Fatalf("honest one-record input did not decode to one record: %v", err)
			}
			lying := binary.AppendUvarint(append([]byte(nil), tc.data[:tc.countAt]...), 1<<24)
			lying = append(lying, tc.data[tc.countAt+1:]...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := tc.decode(lying)
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
}

// TestReadHugeNameRejected ensures corrupt name lengths are rejected.
func TestReadHugeNameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // name length ~4G
	if _, err := Read(&buf); err == nil {
		t.Error("absurd name length accepted")
	}
}

// FuzzRead is the native fuzz target for the trace decoder.
func FuzzRead(f *testing.F) {
	// Seed with a valid encoded trace and a few corruptions of it.
	var buf bytes.Buffer
	valid := columnsOf("seed",
		Record{PC: 0x400000, Target: 0x400020, InstrBefore: 3, Type: CondDirect, Taken: true},
		Record{PC: 0x400100, Target: 0x7f0000, InstrBefore: 12, Type: IndirectCall, Taken: true},
	)
	if err := Write(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(magic[:])
	corrupt := append([]byte(nil), buf.Bytes()...)
	if len(corrupt) > 12 {
		corrupt[12] ^= 0xFF
	}
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Successful decodes must be internally valid and re-encodable.
		for i := 0; i < tr.Len(); i++ {
			if vErr := tr.Record(i).Validate(); vErr != nil {
				t.Fatalf("decoded invalid record: %v", vErr)
			}
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}

// FuzzTraceRoundTrip drives the encoder and decoder together: fuzz bytes
// are shaped into an arbitrary-but-valid trace, and Write -> Read ->
// Write must reproduce both the records and the exact encoded bytes.
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
		var enc bytes.Buffer
		if err := Write(&enc, tr); err != nil {
			t.Fatalf("encoding a valid trace failed: %v", err)
		}
		got, err := Read(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoding failed: %v", err)
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
		if err := Write(&re, got); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), re.Bytes()) {
			t.Fatal("re-encoded bytes differ from the original encoding")
		}
	})
}
