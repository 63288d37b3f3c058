package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// columnsOf builds a trace from records in order.
func columnsOf(name string, recs ...Record) *Columns {
	c := NewColumns(name, len(recs))
	for _, r := range recs {
		c.Append(r)
	}
	return c
}

// sameRecords reports whether a and b hold the same name and records.
func sameRecords(a, b *Columns) bool {
	if a.Name != b.Name || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Record(i) != b.Record(i) {
			return false
		}
	}
	return true
}

func sampleTrace() *Columns {
	return columnsOf("sample",
		Record{PC: 0x400000, Target: 0x400010, InstrBefore: 3, Type: CondDirect, Taken: true},
		Record{PC: 0x400010, Target: 0x400014, InstrBefore: 0, Type: CondDirect, Taken: false},
		Record{PC: 0x400100, Target: 0x7f0000, InstrBefore: 12, Type: IndirectCall, Taken: true},
		Record{PC: 0x7f0040, Target: 0x400108, InstrBefore: 9, Type: Return, Taken: true},
		Record{PC: 0x400200, Target: 0x500000, InstrBefore: 100, Type: IndirectJump, Taken: true},
	)
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := sampleTrace()
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !sameRecords(got, orig) {
		t.Errorf("round trip changed the trace: got %q/%d records, want %q/%d", got.Name, got.Len(), orig.Name, orig.Len())
	}
}

func TestReadBadMagic(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("NOTATRACEFILE___")))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("Read bad magic: err = %v, want ErrBadMagic", err)
	}
}

func TestReadTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	full := buf.Bytes()
	// Every proper prefix must fail cleanly, never panic.
	for n := 0; n < len(full); n++ {
		if _, err := Read(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("Read of %d-byte prefix succeeded, want error", n)
		}
	}
}

func TestWriteRejectsInvalidRecord(t *testing.T) {
	tr := columnsOf("", Record{Type: BranchType(7), Taken: true})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err == nil {
		t.Error("Write accepted invalid record")
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, NewColumns("", 0)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Len() != 0 {
		t.Errorf("got %d records, want 0", got.Len())
	}
}

// randomTrace builds an arbitrary-but-valid trace from a rand source, used
// by the property-based round-trip test.
func randomTrace(r *rand.Rand) *Columns {
	n := r.Intn(200)
	tr := NewColumns("fuzz", n)
	for i := 0; i < n; i++ {
		rec := Record{
			PC:          r.Uint64(),
			Target:      r.Uint64(),
			InstrBefore: uint32(r.Intn(1 << 16)),
			Type:        BranchType(r.Intn(numBranchTypes)),
		}
		if rec.Type.IsConditional() {
			rec.Taken = r.Intn(2) == 0
		} else {
			rec.Taken = true
		}
		tr.Append(rec)
	}
	return tr
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		orig := randomTrace(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := Write(&buf, orig); err != nil {
			t.Logf("Write: %v", err)
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			t.Logf("Read: %v", err)
			return false
		}
		return sameRecords(got, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEncodingIsCompact(t *testing.T) {
	// A tight loop — same PC repeatedly — should compress far below the
	// naive 25+ bytes/record encoding thanks to XOR deltas.
	tr := NewColumns("loop", 1000)
	for i := 0; i < 1000; i++ {
		tr.Append(Record{PC: 0x400100, Target: 0x400000, InstrBefore: 5, Type: CondDirect, Taken: true})
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	perRecord := float64(buf.Len()) / 1000
	if perRecord > 8 {
		t.Errorf("loop trace uses %.1f bytes/record, want <= 8", perRecord)
	}
}
