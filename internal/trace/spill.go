package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// SPL3 is the one on-disk trace format. The trace cache spills to it,
// tracegen writes it, and blbpsim, the replay workload kind and
// blbp.ReadTrace read it. A file is a self-describing header followed by
// the trace's records. The header carries the full workload identity
// (name, seed, instruction budget, parameter fingerprint) plus the record
// count, so a reader can decide whether a file on disk really is the trace
// it wants: a name alone is not enough once files outlive the process
// that wrote them (stale seeds, renamed files, hash collisions in the file
// name).
//
// The records are stored in checksummed blocks:
//
//	magic    "BLBPSPL3"                 (8 bytes)
//	name     uvarint length + bytes     (workload name)
//	seed     uvarint                    (two's-complement bits of the int64 seed)
//	instr    uvarint                    (instruction budget)
//	fprint   uvarint                    (generator-parameter fingerprint)
//	records  uvarint                    (total record count, ≤ 2^32)
//	blocks   until records are consumed:
//	  nrec     uvarint                  (records in this block, 1..4096)
//	  nbytes   uvarint                  (encoded size of this block, ≤ nrec × 26)
//	  checksum 8 bytes little-endian    (FNV-64a of the block bytes)
//	  payload  nbytes bytes             (nrec records)
//
// Each record is encoded as:
//
//	header      1 byte: type (bits 0..2) | taken (bit 3)
//	instrBefore uvarint
//	pc          uvarint of pc XOR prevPC (prevPC is 0 at each block's start)
//	target      uvarint of target XOR pc
//
// XOR deltas keep hot-loop records to a handful of bytes without requiring
// monotonic addresses.
//
// Blocking serves the reader: each block is checksummed and then decoded
// from one contiguous in-memory slice (binary.Uvarint over []byte instead
// of a byte-at-a-time bufio stream), and a corrupt or truncated file fails
// at the first bad block instead of after hashing the whole payload.
// Restarting the delta chain per block keeps blocks independently
// decodable. The per-block record bound (the only writer never exceeds
// spillBlockRecords) caps the block buffer a reader allocates at 106 KB
// before it has read a single payload byte.
//
// The fingerprint hashes the workload's canonicalized generator parameters
// (workload.FingerprintCanon), completing the identity: two workloads can
// share a name, seed and budget yet generate different traces once specs
// are user-authored data. Files in older formats (older spill versions,
// and the headerless files tracegen once wrote) fail the magic check. In
// the trace cache's spill directory such a file is a counted miss followed
// by a generator rebuild; a tool that reads a trace file reports it.

var spillMagic = [8]byte{'B', 'L', 'B', 'P', 'S', 'P', 'L', '3'}

// spillBlockRecords is the encoder's records-per-block target and the
// reader's per-block limit. At the format's worst-case record size (26
// bytes) a block stays comfortably inside CPU caches while amortizing the
// per-block checksum.
const spillBlockRecords = 4096

// maxSpillRecordLen bounds one encoded record: 1 header byte, a 5-byte
// uvarint for the 32-bit instruction count, and two 10-byte uvarints for
// the PC and target deltas. Used to reject absurd block sizes before
// allocating.
const maxSpillRecordLen = 1 + 5 + 10 + 10

// ErrBadSpillMagic is returned when decoding data that is not an SPL3
// trace file, older formats included. The generators are deterministic,
// so running tracegen gen again reproduces an old tracegen file in SPL3.
var ErrBadSpillMagic = errors.New("trace: bad magic (not an SPL3 trace file; regenerate an old tracegen file with tracegen gen)")

// ErrSpillMismatch is returned when a spill file's payload does not match
// its own header (checksum, record count, or block structure), i.e. the
// file is corrupt or was truncated by a crash.
var ErrSpillMismatch = errors.New("trace: spill payload does not match header")

// SpillHeader is the self-describing preamble of a spill file.
type SpillHeader struct {
	// Name, Seed and Instructions are the workload identity of the payload
	// (workload.Identity, spelled out so this package need not import it).
	Name         string
	Seed         int64
	Instructions int64
	// Fingerprint hashes the workload's canonicalized generator parameters
	// (workload.Identity.Fingerprint).
	Fingerprint uint64
	// Records is the payload's record count.
	Records int64
}

// writeSpillHeader writes the header fields.
func writeSpillHeader(bw *bufio.Writer, h SpillHeader, records int) error {
	if _, err := bw.Write(spillMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(h.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(h.Name); err != nil {
		return err
	}
	for _, v := range []uint64{uint64(h.Seed), uint64(h.Instructions), h.Fingerprint} {
		if err := putUvarint(v); err != nil {
			return err
		}
	}
	return putUvarint(uint64(records))
}

// WriteSpillColumns encodes c as a spill file: header then checksummed
// record blocks. Name, Seed, Instructions and Fingerprint are taken from h;
// Records is computed from c and h's value for it is ignored.
func WriteSpillColumns(w io.Writer, h SpillHeader, c *Columns) error {
	if err := c.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeSpillHeader(bw, h, c.Len()); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	scratch := make([]byte, 0, spillBlockRecords*8)
	edges, idx, instr := c.edges, c.edge, c.instrBefore
	for start := 0; start < c.Len(); start += spillBlockRecords {
		end := start + spillBlockRecords
		if end > c.Len() {
			end = c.Len()
		}
		scratch = scratch[:0]
		var prevPC uint64
		for i := start; i < end; i++ {
			header := c.typ[i]
			if c.Taken(i) {
				header |= 1 << 3
			}
			scratch = append(scratch, header)
			e := edges[idx[i]]
			scratch = binary.AppendUvarint(scratch, uint64(instr[i]))
			scratch = binary.AppendUvarint(scratch, e.PC^prevPC)
			scratch = binary.AppendUvarint(scratch, e.Target^e.PC)
			prevPC = e.PC
		}
		n := binary.PutUvarint(buf[:], uint64(end-start))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		n = binary.PutUvarint(buf[:], uint64(len(scratch)))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf[:8], fnv64a(scratch))
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
		if _, err := bw.Write(scratch); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readSpillHeader decodes the header from br.
func readSpillHeader(br *bufio.Reader) (SpillHeader, error) {
	var h SpillHeader
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return h, fmt.Errorf("trace: reading spill magic: %w", err)
	}
	if m != spillMagic {
		return h, ErrBadSpillMagic
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return h, fmt.Errorf("trace: reading spill name length: %w", err)
	}
	const maxNameLen = 1 << 16
	if nameLen > maxNameLen {
		return h, fmt.Errorf("trace: spill name length %d exceeds limit", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return h, fmt.Errorf("trace: reading spill name: %w", err)
	}
	h.Name = string(name)
	seed, err := binary.ReadUvarint(br)
	if err != nil {
		return h, fmt.Errorf("trace: reading spill seed: %w", err)
	}
	h.Seed = int64(seed)
	instr, err := binary.ReadUvarint(br)
	if err != nil {
		return h, fmt.Errorf("trace: reading spill instruction budget: %w", err)
	}
	h.Instructions = int64(instr)
	if h.Fingerprint, err = binary.ReadUvarint(br); err != nil {
		return h, fmt.Errorf("trace: reading spill fingerprint: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return h, fmt.Errorf("trace: reading spill record count: %w", err)
	}
	const maxRecords = 1 << 32
	if count > maxRecords {
		return h, fmt.Errorf("trace: spill record count %d exceeds limit", count)
	}
	h.Records = int64(count)
	return h, nil
}

// ReadSpillHeader decodes only the header of a spill file, leaving the
// payload unread — the cheap probe a cache uses to index a directory of
// spill files by identity without decoding any records.
func ReadSpillHeader(r io.Reader) (SpillHeader, error) {
	return readSpillHeader(bufio.NewReader(r))
}

// ReadSpillColumns decodes a complete spill file into columnar form: the
// header, then every block, verified against its checksum, the header's
// record count and the per-record validation. Each block is bulk-decoded
// straight into the record columns and the edge table.
func ReadSpillColumns(r io.Reader) (SpillHeader, *Columns, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	h, err := readSpillHeader(br)
	if err != nil {
		return h, nil, err
	}
	c, err := readSpillBlocks(br, h)
	if err != nil {
		return h, nil, err
	}
	return h, c, nil
}

// readSpillBlocks decodes the block sequence into a Columns: each block is
// bounds-checked and checksummed, then bulk-decoded by index into the
// record columns.
func readSpillBlocks(br *bufio.Reader, h SpillHeader) (*Columns, error) {
	// Reserve at most 64K records up front: a corrupt record count must not
	// commit gigabytes before any block verifies. Past that, growCapped
	// grows the columns as verified blocks arrive.
	c := NewColumns(h.Name, int(min(h.Records, 1<<16)))
	var block []byte
	var decoded int64
	for decoded < h.Records {
		nrec, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: reading spill block record count: %w", err)
		}
		if nrec == 0 || nrec > spillBlockRecords || int64(nrec) > h.Records-decoded {
			return nil, fmt.Errorf("%w: block of %d records with %d remaining", ErrSpillMismatch, nrec, h.Records-decoded)
		}
		nbytes, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: reading spill block size: %w", err)
		}
		if nbytes < nrec || nbytes > nrec*maxSpillRecordLen {
			return nil, fmt.Errorf("%w: block of %d bytes for %d records", ErrSpillMismatch, nbytes, nrec)
		}
		var sumBuf [8]byte
		if _, err := io.ReadFull(br, sumBuf[:]); err != nil {
			return nil, fmt.Errorf("trace: reading spill block checksum: %w", err)
		}
		want := binary.LittleEndian.Uint64(sumBuf[:])
		if uint64(cap(block)) < nbytes {
			block = make([]byte, nbytes)
		}
		block = block[:nbytes]
		if _, err := io.ReadFull(br, block); err != nil {
			return nil, fmt.Errorf("trace: reading spill block payload: %w", err)
		}
		if got := fnv64a(block); got != want {
			return nil, fmt.Errorf("%w: block checksum %016x, header says %016x", ErrSpillMismatch, got, want)
		}
		base := int(decoded)
		c.growCapped(base+int(nrec), int(h.Records))
		c.extend(base + int(nrec))
		if !decodeBlockColumns(c, base, block, int(nrec)) {
			return nil, blockError(block, int(nrec))
		}
		decoded += int64(nrec)
	}
	c.finalize()
	// Every record was validated during decoding; mark the columns so
	// simulation passes skip revalidation.
	c.validated = true
	return c, nil
}

// decodeBlockColumns bulk-decodes one block's records (PC delta chain
// starting at 0) straight into the record columns at index base, interning
// each (PC, target) pair into the edge table. data must be consumed
// exactly. Validation is inlined — Record.Validate's two
// conditions plus the varint/overflow checks — and any malformation
// reports false: the (cold) caller re-walks the block with blockError for
// the diagnostic, so no error values are built on this path.
//
//blbp:hot
func decodeBlockColumns(c *Columns, base int, data []byte, nrec int) bool {
	idx := c.edge[base : base+nrec]
	instrs := c.instrBefore[base : base+nrec]
	typs := c.typ[base : base+nrec]
	var prevPC uint64
	off := 0
	for i := 0; i < nrec; i++ {
		if off >= len(data) {
			return false
		}
		header := data[off]
		off++
		typ := header & 0x7
		taken := header&(1<<3) != 0
		if typ >= numBranchTypes {
			return false
		}
		if !taken && typ != uint8(CondDirect) {
			return false
		}
		ib, n := uvarintFast(data, off)
		if n <= 0 || ib > uint64(^uint32(0)) {
			return false
		}
		off += n
		pcDelta, n := uvarintFast(data, off)
		if n <= 0 {
			return false
		}
		off += n
		pc := pcDelta ^ prevPC
		tgtDelta, n := uvarintFast(data, off)
		if n <= 0 {
			return false
		}
		off += n
		idx[i] = c.intern(Edge{pc, tgtDelta ^ pc})
		instrs[i] = uint32(ib)
		typs[i] = typ
		if taken {
			j := uint(base + i)
			c.taken[j>>6] |= 1 << (j & 63)
		}
		prevPC = pc
	}
	return off == len(data)
}

// blockError re-walks a block decodeBlockColumns rejected and returns the
// precise diagnostic for its first malformation.
func blockError(data []byte, nrec int) error {
	var prevPC uint64
	off := 0
	for i := 0; i < nrec; i++ {
		if off >= len(data) {
			return fmt.Errorf("%w: block truncated at record %d", ErrSpillMismatch, i)
		}
		header := data[off]
		off++
		rec := Record{Type: BranchType(header & 0x7), Taken: header&(1<<3) != 0}
		ib, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return fmt.Errorf("%w: bad instr count at block record %d", ErrSpillMismatch, i)
		}
		off += n
		if ib > uint64(^uint32(0)) {
			return fmt.Errorf("%w: instr count %d overflows at block record %d", ErrSpillMismatch, ib, i)
		}
		pcDelta, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return fmt.Errorf("%w: bad pc at block record %d", ErrSpillMismatch, i)
		}
		off += n
		rec.PC = pcDelta ^ prevPC
		if _, n = binary.Uvarint(data[off:]); n <= 0 {
			return fmt.Errorf("%w: bad target at block record %d", ErrSpillMismatch, i)
		}
		off += n
		if err := rec.Validate(); err != nil {
			return fmt.Errorf("trace: block record %d: %w", i, err)
		}
		prevPC = rec.PC
	}
	if off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes in block", ErrSpillMismatch, len(data)-off)
	}
	return fmt.Errorf("%w: malformed block contents", ErrSpillMismatch)
}

// uvarintFast is binary.Uvarint with an inlined single-byte fast path: spill
// deltas are overwhelmingly one byte (XOR of consecutive loop PCs), so the
// common case avoids the call and its loop setup entirely. Returns n <= 0
// exactly when binary.Uvarint would (truncated or oversized varint).
func uvarintFast(data []byte, off int) (uint64, int) {
	if off < len(data) {
		if b := data[off]; b < 0x80 {
			return uint64(b), 1
		}
	}
	return binary.Uvarint(data[off:])
}

// fnv64a is an allocation-free FNV-64a over data (hash/fnv's New64a forces
// a heap allocation per hasher; the spill hot path sums one block at a
// time).
//
//blbp:hot
func fnv64a(data []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range data {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}
