package snapshot

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

type tcfg struct {
	A int
	B string
}

func buildContainer() *Container {
	c := NewContainer("test", Fingerprint(tcfg{A: 3, B: "x"}))
	e := c.Section("ints")
	e.U64(0xdeadbeefcafef00d)
	e.I64(-42)
	e.Int(7)
	e.U32(0xffffffff)
	e.U8(200)
	e.I8(-5)
	e.Bool(true)
	e.Bool(false)
	s := c.Section("slices")
	s.U64s([]uint64{1, 2, 3})
	s.I64s([]int64{-1, 0, 1})
	s.U32s([]uint32{9, 8})
	s.U16s([]uint16{1000, 2000})
	s.U8s([]uint8{4, 5, 6})
	s.I8s([]int8{-7, 7})
	s.Bools([]bool{true, false, true})
	s.String("hello")
	s.Bytes([]byte{0xaa, 0xbb})
	return c
}

func TestContainerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := buildContainer().EncodeTo(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	fpr := Fingerprint(tcfg{A: 3, B: "x"})
	d, err := ReadContainer(bytes.NewReader(buf.Bytes()), "test", fpr)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	ints, err := d.Section("ints")
	if err != nil {
		t.Fatal(err)
	}
	if got := ints.U64(); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %x", got)
	}
	if got := ints.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := ints.Int(); got != 7 {
		t.Errorf("Int = %d", got)
	}
	if got := ints.U32(); got != 0xffffffff {
		t.Errorf("U32 = %x", got)
	}
	if got := ints.U8(); got != 200 {
		t.Errorf("U8 = %d", got)
	}
	if got := ints.I8(); got != -5 {
		t.Errorf("I8 = %d", got)
	}
	if !ints.Bool() || ints.Bool() {
		t.Errorf("Bool sequence wrong")
	}
	if err := ints.Finish(); err != nil {
		t.Errorf("ints Finish: %v", err)
	}

	sl, err := d.Section("slices")
	if err != nil {
		t.Fatal(err)
	}
	u64s := make([]uint64, 3)
	sl.U64sInto(u64s)
	i64s := make([]int64, 3)
	sl.I64sInto(i64s)
	u32s := make([]uint32, 2)
	sl.U32sInto(u32s)
	u16s := make([]uint16, 2)
	sl.U16sInto(u16s)
	u8s := make([]uint8, 3)
	sl.U8sInto(u8s)
	i8s := make([]int8, 2)
	sl.I8sInto(i8s)
	bools := make([]bool, 3)
	sl.BoolsInto(bools)
	str := sl.StringMax(16)
	bs := sl.BytesMax(16)
	if err := sl.Finish(); err != nil {
		t.Fatalf("slices Finish: %v", err)
	}
	if u64s[2] != 3 || i64s[0] != -1 || u32s[1] != 8 || u16s[1] != 2000 ||
		u8s[0] != 4 || i8s[0] != -7 || !bools[2] || str != "hello" || !bytes.Equal(bs, []byte{0xaa, 0xbb}) {
		t.Errorf("slice round trip mismatch: %v %v %v %v %v %v %v %q %x",
			u64s, i64s, u32s, u16s, u8s, i8s, bools, str, bs)
	}
}

func TestReadContainerRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := buildContainer().EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	fpr := Fingerprint(tcfg{A: 3, B: "x"})

	// Wrong magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := ReadContainer(bytes.NewReader(bad), "test", fpr); !errors.Is(err, ErrBadMagic) {
		t.Errorf("wrong magic: got %v, want ErrBadMagic", err)
	}
	// Wrong predictor name and wrong fingerprint.
	if _, err := ReadContainer(bytes.NewReader(good), "other", fpr); !errors.Is(err, ErrMismatch) {
		t.Errorf("wrong name: got %v, want ErrMismatch", err)
	}
	if _, err := ReadContainer(bytes.NewReader(good), "test", fpr^1); !errors.Is(err, ErrMismatch) {
		t.Errorf("wrong fingerprint: got %v, want ErrMismatch", err)
	}
	// Truncation at every prefix length must fail, never panic or succeed.
	for n := 0; n < len(good); n++ {
		if _, err := ReadContainer(bytes.NewReader(good[:n]), "test", fpr); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// A bit flip anywhere in a section payload must fail the checksum. The
	// header region (magic through section count) is covered by the
	// name/fingerprint/bounds checks above; flip payload bytes at the tail.
	for off := len(good) - 40; off < len(good); off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x10
		if _, err := ReadContainer(bytes.NewReader(bad), "test", fpr); err == nil {
			t.Fatalf("bit flip at %d decoded successfully", off)
		}
	}
}

// lyingSectionContainer is a 66-byte container owned by "x" whose one
// section claims maxSectionLen payload bytes and holds none.
func lyingSectionContainer(fpr uint64) []byte {
	var e Enc
	e.buf = append(e.buf, Magic[:]...)
	e.U64(FormatVersion)
	e.String("x")
	e.U64(fpr)
	e.Int(1) // section count
	e.String("k")
	e.Int(maxSectionLen)
	e.U64(0) // checksum; no payload bytes follow
	return e.buf
}

// TestReadContainerLyingSectionLength: a 66-byte container whose one
// section claims maxSectionLen payload bytes must fail as ErrCorrupt
// without committing the claimed length first. Decoding it allocates
// under 1 MB; allocating the claim up front costs 256 MB.
func TestReadContainerLyingSectionLength(t *testing.T) {
	fpr := Fingerprint(tcfg{A: 3, B: "x"})
	lying := lyingSectionContainer(fpr)
	if len(lying) != 66 {
		t.Fatalf("crafted container is %d bytes, want 66", len(lying))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadContainer(bytes.NewReader(lying), "x", fpr)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("got %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("decoding a 66-byte container allocated %.1f MB, want under 1 MB", float64(alloc)/(1<<20))
	}

	// An honest section past the reserve still decodes whole: the buffer
	// grows across several doublings to a length that is not one.
	c := NewContainer("x", fpr)
	big := make([]byte, 3*payloadReserve+5)
	for i := range big {
		big[i] = byte(i * 7)
	}
	c.Section("k").buf = big
	var buf bytes.Buffer
	if err := c.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadContainer(&buf, "x", fpr)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.payloads[0]; !bytes.Equal(got, big) {
		t.Errorf("large payload decoded to %d bytes, want the %d written", len(got), len(big))
	}
}

// FuzzReadContainer feeds arbitrary bytes to the BLBPSNP1 decoder, as the
// owner named by the second input with the seeds' config fingerprint. The
// decoder must never panic, every error must wrap one of the package's
// three sentinels, and a call may allocate at most 4× its input plus 256
// KiB: a length field is only a claim until its bytes arrive.
func FuzzReadContainer(f *testing.F) {
	fpr := Fingerprint(tcfg{A: 3, B: "x"})
	var buf bytes.Buffer
	if err := buildContainer().EncodeTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), "test")
	f.Add(lyingSectionContainer(fpr), "x")
	f.Fuzz(func(t *testing.T, data []byte, name string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadContainer(bytes.NewReader(data), name, fpr)
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrMismatch) {
			t.Errorf("error %v wraps none of ErrBadMagic, ErrCorrupt, ErrMismatch", err)
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(data))+256<<10; alloc > limit {
			t.Errorf("decoding %d bytes allocated %d, want ≤ %d", len(data), alloc, limit)
		}
	})
}

func TestDecStickyErrorsAndTrailing(t *testing.T) {
	var e Enc
	e.U64(1)
	e.U64(2)
	d := &Dec{data: e.buf}
	_ = d.U64()
	if err := d.Finish(); err == nil {
		t.Errorf("Finish with trailing bytes succeeded")
	}
	d2 := &Dec{data: e.buf[:4]}
	_ = d2.U64()
	if d2.Err() == nil {
		t.Errorf("truncated U64 did not set error")
	}
	if got := d2.U64(); got != 0 {
		t.Errorf("poisoned decoder returned %d", got)
	}
	d3 := &Dec{data: e.buf}
	d3.U64sInto(make([]uint64, 5))
	if !errors.Is(d3.Err(), ErrMismatch) {
		t.Errorf("count mismatch: got %v, want ErrMismatch", d3.Err())
	}
}

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	a := Fingerprint(tcfg{A: 1})
	b := Fingerprint(tcfg{A: 2})
	if a == b {
		t.Errorf("different configs share fingerprint %016x", a)
	}
	if a != Fingerprint(tcfg{A: 1}) {
		t.Errorf("fingerprint not deterministic")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snp")
	if err := WriteFileAtomic(path, "snp-*.tmp", func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "payload" {
		t.Fatalf("read back: %q, %v", b, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != fs.FileMode(0o644) {
		t.Errorf("published mode %o, want 644", got)
	}
	// A failing writer must leave no file behind (old or temp).
	path2 := filepath.Join(dir, "fail.snp")
	werr := errors.New("boom")
	if err := WriteFileAtomic(path2, "snp-*.tmp", func(w io.Writer) error {
		return werr
	}); !errors.Is(err, werr) {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, err := os.Stat(path2); !os.IsNotExist(err) {
		t.Errorf("failed write published a file")
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.Name() != "state.snp" {
			t.Errorf("leftover file %q", de.Name())
		}
	}
}
