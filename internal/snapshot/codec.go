package snapshot

import "fmt"

// Enc is an append-only little-endian encoder for section payloads. All
// integers are fixed-width (snapshots trade a few bytes for a trivially
// auditable layout); slices carry a leading element count so the decoder
// can verify shape against the restoring structure.
type Enc struct {
	buf []byte
}

// Bytes appends a length-prefixed byte string (e.g. a nested snapshot).
func (e *Enc) Bytes(b []byte) {
	e.Int(len(b))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int.
func (e *Enc) Int(v int) { e.U64(uint64(int64(v))) }

// U32 appends a uint32.
func (e *Enc) U32(v uint32) { e.U64(uint64(v)) }

// U8 appends a byte (widened; layout simplicity over density).
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// I8 appends an int8.
func (e *Enc) I8(v int8) { e.buf = append(e.buf, uint8(v)) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// U64s appends a count-prefixed []uint64.
func (e *Enc) U64s(s []uint64) {
	e.Int(len(s))
	for _, v := range s {
		e.U64(v)
	}
}

// I64s appends a count-prefixed []int64.
func (e *Enc) I64s(s []int64) {
	e.Int(len(s))
	for _, v := range s {
		e.I64(v)
	}
}

// U32s appends a count-prefixed []uint32.
func (e *Enc) U32s(s []uint32) {
	e.Int(len(s))
	for _, v := range s {
		e.U32(v)
	}
}

// U16s appends a count-prefixed []uint16.
func (e *Enc) U16s(s []uint16) {
	e.Int(len(s))
	for _, v := range s {
		e.U64(uint64(v))
	}
}

// U8s appends a count-prefixed []uint8.
func (e *Enc) U8s(s []uint8) {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// I8s appends a count-prefixed []int8.
func (e *Enc) I8s(s []int8) {
	e.Int(len(s))
	for _, v := range s {
		e.buf = append(e.buf, uint8(v))
	}
}

// Bools appends a count-prefixed []bool, one byte per element.
func (e *Enc) Bools(s []bool) {
	e.Int(len(s))
	for _, v := range s {
		e.Bool(v)
	}
}

// Len returns the number of payload bytes encoded so far.
func (e *Enc) Len() int { return len(e.buf) }

// Dec decodes a section payload written by Enc. Errors are sticky: the
// first failed read poisons the decoder, every later read returns zero
// values, and Err/Finish report the failure — so restore code can decode a
// whole section linearly and check once at the end. The slice readers fill
// caller-owned storage and fail with ErrMismatch when the stored count
// differs, making structure-shape agreement part of decoding.
type Dec struct {
	data []byte
	off  int
	err  error
}

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Finish returns the first decode error, or ErrCorrupt when the section
// has unconsumed trailing bytes (a layout drift both sides must agree on).
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d trailing bytes in section", ErrCorrupt, len(d.data)-d.off)
	}
	return nil
}

func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.data)-d.off < n {
		d.fail(fmt.Errorf("%w: section truncated", ErrCorrupt))
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads a fixed-width little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return leU64(b)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int.
func (d *Dec) Int() int { return int(d.I64()) }

// U32 reads a uint32, failing if the stored value overflows 32 bits.
func (d *Dec) U32() uint32 {
	v := d.U64()
	if v > 0xffffffff {
		d.fail(fmt.Errorf("%w: value %d overflows uint32", ErrCorrupt, v))
		return 0
	}
	return uint32(v)
}

// U8 reads a byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// I8 reads an int8.
func (d *Dec) I8() int8 { return int8(d.U8()) }

// Bool reads a bool, failing on bytes other than 0 or 1.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: invalid bool byte", ErrCorrupt))
		return false
	}
}

// count reads a slice element count and checks it equals want.
func (d *Dec) count(want int) bool {
	n := d.Int()
	if d.err != nil {
		return false
	}
	if n != want {
		d.fail(fmt.Errorf("%w: stored count %d, structure holds %d", ErrMismatch, n, want))
		return false
	}
	return true
}

// varCount reads a slice element count bounded by max.
func (d *Dec) varCount(max int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > max {
		d.fail(fmt.Errorf("%w: count %d outside [0,%d]", ErrCorrupt, n, max))
		return 0
	}
	return n
}

// BytesMax reads a length-prefixed byte string of at most max bytes.
func (d *Dec) BytesMax(max int) []byte {
	n := d.varCount(max)
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// StringMax reads a length-prefixed string of at most max bytes.
func (d *Dec) StringMax(max int) string { return string(d.BytesMax(max)) }

// U64sInto fills dst from a count-prefixed []uint64 of exactly len(dst).
func (d *Dec) U64sInto(dst []uint64) {
	if !d.count(len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = d.U64()
	}
}

// I64sInto fills dst from a count-prefixed []int64 of exactly len(dst).
func (d *Dec) I64sInto(dst []int64) {
	if !d.count(len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = d.I64()
	}
}

// U32sInto fills dst from a count-prefixed []uint32 of exactly len(dst).
func (d *Dec) U32sInto(dst []uint32) {
	if !d.count(len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = d.U32()
	}
}

// U16sInto fills dst from a count-prefixed []uint16 of exactly len(dst).
func (d *Dec) U16sInto(dst []uint16) {
	if !d.count(len(dst)) {
		return
	}
	for i := range dst {
		v := d.U64()
		if v > 0xffff {
			d.fail(fmt.Errorf("%w: value %d overflows uint16", ErrCorrupt, v))
			return
		}
		dst[i] = uint16(v)
	}
}

// U8sInto fills dst from a count-prefixed []uint8 of exactly len(dst).
func (d *Dec) U8sInto(dst []uint8) {
	if !d.count(len(dst)) {
		return
	}
	copy(dst, d.take(len(dst)))
}

// I8sInto fills dst from a count-prefixed []int8 of exactly len(dst).
func (d *Dec) I8sInto(dst []int8) {
	if !d.count(len(dst)) {
		return
	}
	b := d.take(len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = int8(b[i])
	}
}

// BoolsInto fills dst from a count-prefixed []bool of exactly len(dst).
func (d *Dec) BoolsInto(dst []bool) {
	if !d.count(len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = d.Bool()
	}
}
