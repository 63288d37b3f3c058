package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
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
// The writer emits the header in one Write and each block, its three
// prefix fields included, in one more, from a single block buffer reused
// for every block and by the next file written, so it needs no buffered
// writer of its own.
//
// Blocking serves the reader: each block is checksummed and then decoded
// from one contiguous in-memory slice (binary.Uvarint over []byte instead
// of a byte-at-a-time bufio stream), and a corrupt or truncated file fails
// at the first bad block instead of after hashing the whole payload.
// Restarting the delta chain per block keeps blocks independently
// decodable. The per-block record bound (the only writer never exceeds
// spillBlockRecords) caps the block buffer a reader allocates at 133 KB
// (106 KB and a quarter of headroom) before it has read a single payload
// byte.
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

// blockPrefixRoom is the room the writer reserves ahead of each block's
// payload for the block's record count, payload size and checksum, which
// are known only once the payload is encoded; it fits two full uvarints and
// the checksum.
const blockPrefixRoom = 2*binary.MaxVarintLen64 + 8

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

// appendSpillHeader appends the encoded header fields to buf.
func appendSpillHeader(buf []byte, h SpillHeader, records int) []byte {
	buf = append(buf, spillMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(h.Name)))
	buf = append(buf, h.Name...)
	for _, v := range []uint64{uint64(h.Seed), uint64(h.Instructions), h.Fingerprint, uint64(records)} {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// WriteSpillColumns encodes c as a spill file: header then checksummed
// record blocks. Name, Seed, Instructions and Fingerprint are taken from h;
// Records is computed from c and h's value for it is ignored. The header
// and each block reach w in one Write apiece, all from one block buffer,
// which the next call reuses: a cache flush writes every file it spills
// through one buffer.
func WriteSpillColumns(w io.Writer, h SpillHeader, c *Columns) error {
	if err := c.Validate(); err != nil {
		return err
	}
	bp := spillBuffers.take()
	defer spillBuffers.give(bp)
	buf := appendSpillHeader((*bp)[:0], h, c.Len())
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for start := 0; start < c.Len(); start += spillBlockRecords {
		end := min(start+spillBlockRecords, c.Len())
		buf = buf[:blockPrefixRoom]
		var prevPC uint64
		for i := start; i < end; i++ {
			r := c.At(i)
			header := uint8(r.Type)
			if r.Taken {
				header |= 1 << 3
			}
			buf = append(buf, header)
			buf = binary.AppendUvarint(buf, uint64(r.InstrBefore))
			buf = binary.AppendUvarint(buf, r.PC^prevPC)
			buf = binary.AppendUvarint(buf, r.Target^r.PC)
			prevPC = r.PC
		}
		payload := buf[blockPrefixRoom:]
		var prefix [blockPrefixRoom]byte
		n := binary.PutUvarint(prefix[:], uint64(end-start))
		n += binary.PutUvarint(prefix[n:], uint64(len(payload)))
		binary.LittleEndian.PutUint64(prefix[n:], fnv64a(payload))
		n += 8
		copy(buf[blockPrefixRoom-n:], prefix[:n])
		if _, err := w.Write(buf[blockPrefixRoom-n:]); err != nil {
			return err
		}
	}
	*bp = buf
	return nil
}

// spillBuffers holds the writer's idle block buffers. A buffer starts
// with room for a block of typical records (8 bytes each, well above the
// suite's average), so an encoder reallocates it only for a block of
// unusually long records, and keeps the larger buffer. It is a free list
// rather than a sync.Pool: a pool drops its objects at collections, and
// under the race detector Put drops a random share of them. It holds at
// most one buffer per write ever run at once.
var spillBuffers blockBuffers

// blockBuffers is a mutex-guarded free list of block buffers.
type blockBuffers struct {
	mu   sync.Mutex
	bufs []*[]byte
}

// take returns an idle buffer, or a new one when none is idle.
func (l *blockBuffers) take() *[]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.bufs); n > 0 {
		b := l.bufs[n-1]
		l.bufs = l.bufs[:n-1]
		return b
	}
	b := make([]byte, 0, blockPrefixRoom+spillBlockRecords*8)
	return &b
}

// give makes b idle.
func (l *blockBuffers) give(b *[]byte) {
	l.mu.Lock()
	l.bufs = append(l.bufs, b)
	l.mu.Unlock()
}

// spillReadBuffer sizes the decoder's buffered reader. It serves the
// header and the block prefixes; io.ReadFull of a block payload longer than
// the buffered bytes reads the rest straight into the block buffer, so a
// larger buffer would save few reads.
const spillReadBuffer = 4 << 10

// spillHeaderBuffer sizes the reader ReadSpillHeader probes a file with: a
// header is a few dozen bytes unless the name is long, and a longer one
// only costs the probe another read.
const spillHeaderBuffer = 512

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
	return readSpillHeader(bufio.NewReaderSize(r, spillHeaderBuffer))
}

// ReadSpillColumns decodes a complete spill file into columnar form: the
// header, then every block, verified against its checksum, the header's
// record count and the per-record validation. Each block is bulk-decoded
// straight into the trace's table and index column.
func ReadSpillColumns(r io.Reader) (SpillHeader, *Columns, error) {
	br := bufio.NewReaderSize(r, spillReadBuffer)
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
// bounds-checked and checksummed, then bulk-decoded into the trace.
func readSpillBlocks(br *bufio.Reader, h SpillHeader) (*Columns, error) {
	// Reserve at most 64K records up front: a corrupt record count must not
	// commit gigabytes before any block verifies. Past that, growCapped
	// grows the index column as verified blocks arrive.
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
			block = make([]byte, nbytes, nbytes+nbytes/4)
		}
		block = block[:nbytes]
		if _, err := io.ReadFull(br, block); err != nil {
			return nil, fmt.Errorf("trace: reading spill block payload: %w", err)
		}
		if got := fnv64a(block); got != want {
			return nil, fmt.Errorf("%w: block checksum %016x, header says %016x", ErrSpillMismatch, got, want)
		}
		c.growCapped(int(decoded)+int(nrec), int(h.Records))
		if err := decodeBlock(c, block, int(nrec)); err != nil {
			return nil, err
		}
		decoded += int64(nrec)
	}
	// Every record was validated during decoding; mark the columns so
	// simulation passes skip revalidation.
	c.validated = true
	return c, nil
}

// decodeBlock decodes one block's records (PC delta chain starting at 0)
// and appends them to c, within the capacity growCapped reserved. data
// must be consumed exactly. Validation is inlined — Record.Validate's two
// conditions plus the varint/overflow checks — and the first malformation
// returns its diagnostic, built by the cold blockError so that this path
// builds no error values while the block is well formed.
//
//blbp:hot
func decodeBlock(c *Columns, data []byte, nrec int) error {
	var prevPC uint64
	off := 0
	for i := 0; i < nrec; i++ {
		if off >= len(data) {
			return blockError(blockTruncated, i, 0, Record{})
		}
		header := data[off]
		off++
		ib, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return blockError(badInstrCount, i, 0, Record{})
		}
		off += n
		if ib > uint64(^uint32(0)) {
			return blockError(instrCountOverflow, i, ib, Record{})
		}
		pcDelta, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return blockError(badPC, i, 0, Record{})
		}
		off += n
		pc := pcDelta ^ prevPC
		tgtDelta, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return blockError(badTarget, i, 0, Record{})
		}
		off += n
		typ, taken := BranchType(header&0x7), header&(1<<3) != 0
		if !typ.Valid() || !taken && !typ.IsConditional() {
			return blockError(invalidRecord, i, 0, Record{PC: pc, Type: typ, Taken: taken})
		}
		c.Append(Record{PC: pc, Target: tgtDelta ^ pc, InstrBefore: uint32(ib), Type: typ, Taken: taken})
		prevPC = pc
	}
	if off != len(data) {
		return blockError(trailingBytes, 0, uint64(len(data)-off), Record{})
	}
	return nil
}

// blockFault names the malformation decodeBlock met.
type blockFault uint8

const (
	blockTruncated     blockFault = iota // the block ends before record i
	badInstrCount                        // record i's instruction count is no varint
	instrCountOverflow                   // record i's instruction count, v, exceeds 32 bits
	badPC                                // record i's PC delta is no varint
	badTarget                            // record i's target delta is no varint
	invalidRecord                        // record i, r (type, outcome and PC), fails Record.Validate
	trailingBytes                        // v bytes follow the last record
)

// blockError builds decodeBlock's diagnostic for fault f at block record i.
func blockError(f blockFault, i int, v uint64, r Record) error {
	switch f {
	case blockTruncated:
		return fmt.Errorf("%w: block truncated at record %d", ErrSpillMismatch, i)
	case badInstrCount:
		return fmt.Errorf("%w: bad instr count at block record %d", ErrSpillMismatch, i)
	case instrCountOverflow:
		return fmt.Errorf("%w: instr count %d overflows at block record %d", ErrSpillMismatch, v, i)
	case badPC:
		return fmt.Errorf("%w: bad pc at block record %d", ErrSpillMismatch, i)
	case badTarget:
		return fmt.Errorf("%w: bad target at block record %d", ErrSpillMismatch, i)
	case invalidRecord:
		return fmt.Errorf("trace: block record %d: %w", i, r.Validate())
	}
	return fmt.Errorf("%w: %d trailing bytes in block", ErrSpillMismatch, v)
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
