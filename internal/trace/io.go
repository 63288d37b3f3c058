package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The on-disk format is a compact varint encoding:
//
//	magic   "BLBPTRC1"              (8 bytes)
//	name    uvarint length + bytes
//	count   uvarint number of records
//	records count × record
//
// Each record is encoded as:
//
//	header      1 byte: type (bits 0..2) | taken (bit 3)
//	instrBefore uvarint
//	pc          uvarint of pc XOR prevPC   (delta-style, compresses loops)
//	target      uvarint of target XOR pc
//
// XOR-deltas keep hot-loop records to a handful of bytes without requiring
// monotonic addresses.

var magic = [8]byte{'B', 'L', 'B', 'P', 'T', 'R', 'C', '1'}

// ErrBadMagic is returned when decoding data that is not a BLBP trace.
var ErrBadMagic = errors.New("trace: bad magic (not a BLBP trace file)")

// Write encodes the trace to w in the binary trace format.
func Write(w io.Writer, c *Columns) error {
	if err := c.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(c.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(c.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(c.Len())); err != nil {
		return err
	}
	var prevPC uint64
	for i := 0; i < c.Len(); i++ {
		r := c.Record(i)
		header := byte(r.Type)
		if r.Taken {
			header |= 1 << 3
		}
		if err := bw.WriteByte(header); err != nil {
			return err
		}
		if err := putUvarint(uint64(r.InstrBefore)); err != nil {
			return err
		}
		if err := putUvarint(r.PC ^ prevPC); err != nil {
			return err
		}
		if err := putUvarint(r.Target ^ r.PC); err != nil {
			return err
		}
		prevPC = r.PC
	}
	return bw.Flush()
}

// Read decodes a trace previously encoded with Write.
func Read(r io.Reader) (*Columns, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	const maxNameLen = 1 << 16
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds limit", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading record count: %w", err)
	}
	// Guard against absurd counts from corrupt input before allocating.
	const maxRecords = 1 << 32
	if count > maxRecords {
		return nil, fmt.Errorf("trace: record count %d exceeds limit", count)
	}
	// Reserve at most 64K records up front: a corrupt count below the hard
	// limit must not commit gigabytes before any record verifies. Past that,
	// growCapped grows the columns as records verify, and a lying count
	// fails at EOF.
	c := NewColumns(string(name), int(min(count, 1<<16)))
	var prevPC uint64
	for i := uint64(0); i < count; i++ {
		header, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d header: %w", i, err)
		}
		var rec Record
		rec.Type = BranchType(header & 0x7)
		rec.Taken = header&(1<<3) != 0
		ib, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d instr count: %w", i, err)
		}
		if ib > uint64(^uint32(0)) {
			return nil, fmt.Errorf("trace: record %d instr count %d overflows", i, ib)
		}
		rec.InstrBefore = uint32(ib)
		pcDelta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d pc: %w", i, err)
		}
		rec.PC = pcDelta ^ prevPC
		tgtDelta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d target: %w", i, err)
		}
		rec.Target = tgtDelta ^ rec.PC
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		prevPC = rec.PC
		c.growCapped(int(i)+1, int(count))
		c.Append(rec)
	}
	// Every record was validated during decoding; mark the trace so
	// simulation passes skip revalidation.
	c.validated = true
	return c, nil
}
