package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
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

func spillTestTrace() *Columns {
	return columnsOf("spill-wl",
		Record{PC: 0x400000, Target: 0x400020, InstrBefore: 3, Type: CondDirect, Taken: true},
		Record{PC: 0x400100, Target: 0x7f0000, InstrBefore: 12, Type: IndirectCall, Taken: true},
		Record{PC: 0x7f0040, Target: 0x400104, InstrBefore: 7, Type: Return, Taken: true},
	)
}

func TestSpillRoundTrip(t *testing.T) {
	tr := spillTestTrace()
	want := SpillHeader{Name: tr.Name, Seed: -42, Instructions: 9001, Fingerprint: 0xfeed}
	var buf bytes.Buffer
	if err := WriteSpillColumns(&buf, want, tr); err != nil {
		t.Fatal(err)
	}
	h, got, err := ReadSpillColumns(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want.Records = int64(tr.Len())
	if h != want {
		t.Errorf("header = %+v, want %+v", h, want)
	}
	if !sameRecords(got, tr) {
		t.Fatalf("payload %q/%d differs from %q/%d after round trip", got.Name, got.Len(), tr.Name, tr.Len())
	}
}

func TestReadSpillHeaderOnly(t *testing.T) {
	tr := spillTestTrace()
	var buf bytes.Buffer
	if err := WriteSpillColumns(&buf, SpillHeader{Name: tr.Name, Seed: 7, Instructions: 500}, tr); err != nil {
		t.Fatal(err)
	}
	h, err := ReadSpillHeader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != tr.Name || h.Seed != 7 || h.Instructions != 500 || h.Records != int64(tr.Len()) {
		t.Errorf("header = %+v", h)
	}
}

// bigSpillTrace spans several encoder blocks. Its PCs never repeat, so
// almost every record is a new edge: the edge table's worst case.
func bigSpillTrace(records int) *Columns { return cyclingSpillTrace(records, records) }

// cyclingSpillTrace is bigSpillTrace with its PC walk restarting every
// period records, as a generator's loops revisit their branches. The record
// pattern repeats every 105 records, so a period that is a multiple of 105
// gives a trace of at most period edges however long it runs.
func cyclingSpillTrace(records, period int) *Columns {
	t := NewColumns("spill-big", records)
	pc := uint64(0x400000)
	for i := 0; i < records; i++ {
		if i%period == 0 {
			pc = 0x400000
		}
		switch i % 3 {
		case 0:
			t.Append(Record{PC: pc, Target: pc + 0x20, InstrBefore: uint32(i % 17), Type: CondDirect, Taken: i%2 == 0})
		case 1:
			t.Append(Record{PC: pc + 4, Target: uint64(0x7f0000 + i%5*64), InstrBefore: 9, Type: IndirectCall, Taken: true})
		default:
			t.Append(Record{PC: pc + 8, Target: pc - 0x100, InstrBefore: 2, Type: Return, Taken: true})
		}
		pc += uint64(i%7) * 16
	}
	return t
}

func TestSpillRoundTripMultiBlock(t *testing.T) {
	tr := bigSpillTrace(3*spillBlockRecords + 17)
	var buf bytes.Buffer
	if err := WriteSpillColumns(&buf, SpillHeader{Name: tr.Name, Seed: 5, Instructions: 1e6}, tr); err != nil {
		t.Fatal(err)
	}
	h, got, err := ReadSpillColumns(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Records != int64(tr.Len()) || !sameRecords(got, tr) {
		t.Fatalf("multi-block round trip: header %d records, decoded %d, want %d identical", h.Records, got.Len(), tr.Len())
	}
}

// TestLegacySpillMagicRejected: SPL1 and SPL2 files are no longer read. Both
// the header probe and the full decode must reject them as not-a-spill, so
// the cache counts a miss and rebuilds.
func TestLegacySpillMagicRejected(t *testing.T) {
	for _, magic := range []string{"BLBPSPL1", "BLBPSPL2"} {
		data := append([]byte(magic), 2, 'w', 'l', 7, 100, 0)
		if _, err := ReadSpillHeader(bytes.NewReader(data)); !errors.Is(err, ErrBadSpillMagic) {
			t.Errorf("%s header probe error = %v, want ErrBadSpillMagic", magic, err)
		}
		if _, _, err := ReadSpillColumns(bytes.NewReader(data)); !errors.Is(err, ErrBadSpillMagic) {
			t.Errorf("%s decode error = %v, want ErrBadSpillMagic", magic, err)
		}
	}
}

// TestSpillBlockCorruption flips a byte deep inside a middle block: the
// per-block checksum must catch it without decoding past that block.
func TestSpillBlockCorruption(t *testing.T) {
	tr := bigSpillTrace(3 * spillBlockRecords)
	var buf bytes.Buffer
	if err := WriteSpillColumns(&buf, SpillHeader{Name: tr.Name, Seed: 1, Instructions: 100}, tr); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/2] ^= 0x01
	if _, _, err := ReadSpillColumns(bytes.NewReader(data)); !errors.Is(err, ErrSpillMismatch) {
		t.Errorf("corrupt block error = %v, want ErrSpillMismatch", err)
	}
}

// oversizedBlockSpill is a 38-byte SPL3 file whose header claims 2^32
// records and whose first block claims 2^32 records in 2^32 bytes.
func oversizedBlockSpill() []byte {
	data := append(spillMagic[:len(spillMagic):len(spillMagic)], 3, 'b', 'i', 'g', 0, 0, 0)
	data = binary.AppendUvarint(data, 1<<32) // records
	data = binary.AppendUvarint(data, 1<<32) // nrec
	data = binary.AppendUvarint(data, 1<<32) // nbytes
	return append(data, make([]byte, 8)...)  // checksum
}

// TestSpillOversizedBlockRejectedBeforeAlloc: a block claiming more records
// than the writer ever puts in one must fail on its length fields, before
// the reader allocates a buffer for the claimed payload.
func TestSpillOversizedBlockRejectedBeforeAlloc(t *testing.T) {
	data := oversizedBlockSpill()
	if len(data) != 38 {
		t.Fatalf("fixture is %d bytes, want 38", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadSpillColumns(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSpillMismatch) {
		t.Errorf("oversized block error = %v, want ErrSpillMismatch", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 4<<20 {
		t.Errorf("rejecting the oversized block allocated %d bytes, want < 4 MB", delta)
	}
}

// TestReadSpillRejectsBarePayload: a one-record file in BLBPTRC1, the
// headerless format tracegen wrote before SPL3, spelled out byte by byte,
// must be recognizable as not-SPL3, so a cache prunes it and a tool
// reports it instead of decoding it.
func TestReadSpillRejectsBarePayload(t *testing.T) {
	data := append([]byte("BLBPTRC1"), 2, 'w', 'l', 1) // magic, name "wl", one record
	data = append(data, 0x08, 3)                       // taken CondDirect, 3 instructions before
	data = binary.AppendUvarint(data, 0x400000)        // PC, XOR the previous PC (0)
	data = append(data, 0x20)                          // target 0x400020, XOR the PC
	if _, _, err := ReadSpillColumns(bytes.NewReader(data)); !errors.Is(err, ErrBadSpillMagic) {
		t.Errorf("bare payload error = %v, want ErrBadSpillMagic", err)
	}
	if _, err := ReadSpillHeader(bytes.NewReader(data)); !errors.Is(err, ErrBadSpillMagic) {
		t.Errorf("header probe error = %v, want ErrBadSpillMagic", err)
	}
}

func TestReadSpillDetectsCorruptPayload(t *testing.T) {
	tr := spillTestTrace()
	var buf bytes.Buffer
	if err := WriteSpillColumns(&buf, SpillHeader{Name: tr.Name, Seed: 1, Instructions: 100}, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one bit in the last payload byte; the checksum must catch it
	// even if the payload still happens to decode.
	data[len(data)-1] ^= 0x40
	if _, _, err := ReadSpillColumns(bytes.NewReader(data)); !errors.Is(err, ErrSpillMismatch) {
		t.Errorf("corrupt payload error = %v, want ErrSpillMismatch", err)
	}
}

func TestReadSpillDetectsTruncation(t *testing.T) {
	tr := spillTestTrace()
	var buf bytes.Buffer
	if err := WriteSpillColumns(&buf, SpillHeader{Name: tr.Name, Seed: 1, Instructions: 100}, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := len(data) - 1; cut > len(data)-6; cut-- {
		if _, _, err := ReadSpillColumns(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes accepted", cut, len(data))
		}
	}
	// Truncation inside the header must fail the cheap probe too.
	if _, err := ReadSpillHeader(bytes.NewReader(data[:5])); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestReadSpillHugeNameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(spillMagic[:])
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // name length ~4G
	if _, err := ReadSpillHeader(&buf); err == nil {
		t.Error("absurd spill name length accepted")
	}
}

func TestReadSpillEmpty(t *testing.T) {
	if _, err := ReadSpillHeader(bytes.NewReader(nil)); !errors.Is(err, io.ErrUnexpectedEOF) && err == nil {
		t.Error("empty input accepted")
	}
}

func TestWriteRejectsInvalidRecord(t *testing.T) {
	tr := columnsOf("", Record{Type: BranchType(7), Taken: true})
	var buf bytes.Buffer
	if err := WriteSpillColumns(&buf, SpillHeader{}, tr); err == nil {
		t.Error("WriteSpillColumns accepted invalid record")
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpillColumns(&buf, SpillHeader{}, NewColumns("", 0)); err != nil {
		t.Fatalf("WriteSpillColumns: %v", err)
	}
	h, got, err := ReadSpillColumns(&buf)
	if err != nil {
		t.Fatalf("ReadSpillColumns: %v", err)
	}
	if h.Records != 0 || got.Len() != 0 {
		t.Errorf("got %d records (header says %d), want 0", got.Len(), h.Records)
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

// TestRoundTripProperty: random valid traces under random identities
// round-trip through SPL3 with every header field and record intact.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orig := randomTrace(r)
		want := SpillHeader{Name: orig.Name, Seed: r.Int63() - r.Int63(), Instructions: r.Int63(), Fingerprint: r.Uint64(), Records: int64(orig.Len())}
		var buf bytes.Buffer
		if err := WriteSpillColumns(&buf, want, orig); err != nil {
			t.Logf("WriteSpillColumns: %v", err)
			return false
		}
		h, got, err := ReadSpillColumns(&buf)
		if err != nil {
			t.Logf("ReadSpillColumns: %v", err)
			return false
		}
		return h == want && sameRecords(got, orig)
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
	if err := WriteSpillColumns(&buf, SpillHeader{Name: tr.Name}, tr); err != nil {
		t.Fatalf("WriteSpillColumns: %v", err)
	}
	perRecord := float64(buf.Len()) / 1000
	if perRecord > 8 {
		t.Errorf("loop trace uses %.1f bytes/record, want <= 8", perRecord)
	}
}

// TestSpillDecodeAllocatesAboutOnce decodes a 300K-record spill file. Past
// the 64K-record reservation the record columns grow by capped doubling,
// and the edge table and its index (almost every record here is a new
// edge) by doubling, so the decode allocates at most 3× the trace's Bytes.
func TestSpillDecodeAllocatesAboutOnce(t *testing.T) {
	tr := bigSpillTrace(300_000)
	var spill bytes.Buffer
	if err := WriteSpillColumns(&spill, SpillHeader{Name: tr.Name, Seed: 2, Instructions: 1e6}, tr); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, got, err := ReadSpillColumns(bytes.NewReader(spill.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("decoding %d records allocated %d bytes, %.2f× the trace's %d", got.Len(), alloc, float64(alloc)/float64(got.Bytes()), got.Bytes())
	if alloc > 3*got.Bytes() {
		t.Errorf("decode allocated %.2f× the trace's bytes, want ≤ 3×", float64(alloc)/float64(got.Bytes()))
	}
	if !sameRecords(got, tr) {
		t.Error("SPL3 decode differs from the encoded trace")
	}
}

// BenchmarkReadSpill decodes a spill file that fits the decoder's 64K-record
// reservation and one that grows past it, each for a trace of all-new edges
// (bigSpillTrace) and for one whose PCs cycle over 1,050 records, about as
// many edges as a suite trace holds.
func BenchmarkReadSpill(b *testing.B) {
	for _, bc := range []struct {
		name            string
		records, period int
	}{
		{"records=40000", 40_000, 40_000},
		{"records=300000", 300_000, 300_000},
		{"records=40000,period=1050", 40_000, 1050},
		{"records=300000,period=1050", 300_000, 1050},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := cyclingSpillTrace(bc.records, bc.period)
			var buf bytes.Buffer
			if err := WriteSpillColumns(&buf, SpillHeader{Name: tr.Name, Seed: 3, Instructions: 1e6}, tr); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, got, err := ReadSpillColumns(bytes.NewReader(data))
				if err != nil || got.Len() != tr.Len() {
					b.Fatalf("decode: %v", err)
				}
			}
		})
	}
}
