// Package snapshot implements BLBPSNP1, the versioned, checksummed codec
// for trained predictor state. A snapshot is a self-describing container in
// the same discipline as the BLBPSPL3 spill format (internal/trace): an
// 8-byte magic, a format version, the owning predictor's name and a 64-bit
// fingerprint of its configuration, then a sequence of typed sections, each
// carrying its own FNV-64a checksum. Decoding verifies magic, version,
// name, fingerprint, and every section checksum before any state is
// interpreted, so a truncated, bit-flipped, or mismatched snapshot fails
// loudly instead of silently restoring garbage into a predictor.
//
// The package is a dependency leaf (stdlib only): every predictor package
// serializes its state through the Enc/Dec helpers here, and the top-level
// Snapshotter methods (EncodeState/RestoreState, see internal/predictor)
// frame those payloads in a container.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
)

// Magic identifies a BLBPSNP1 snapshot stream.
var Magic = [8]byte{'B', 'L', 'B', 'P', 'S', 'N', 'P', '1'}

// FormatVersion is the current container format version.
const FormatVersion = 1

// Decode bounds: a corrupt length field must not drive preallocation.
// Names, kinds and the section count are capped before memory is
// committed; a section payload, which may legitimately be large, is read
// from a small reserve that grows only as its bytes arrive (readPayload).
const (
	maxNameLen     = 1 << 16
	maxKindLen     = 1 << 12
	maxSections    = 1 << 16
	maxSectionLen  = 1 << 28
	payloadReserve = 64 << 10
)

// Sentinel errors. ErrBadMagic and ErrCorrupt mean the bytes are not a
// usable snapshot (wrong format, truncation, checksum failure); ErrMismatch
// means the snapshot is internally consistent but belongs to a different
// predictor, configuration, or structure shape than the one restoring it.
var (
	ErrBadMagic = errors.New("snapshot: bad magic (not a BLBPSNP1 snapshot)")
	ErrCorrupt  = errors.New("snapshot: corrupt or truncated snapshot")
	ErrMismatch = errors.New("snapshot: snapshot does not match this predictor")
)

// Fingerprint hashes a configuration value into the 64-bit config
// fingerprint stored in snapshot headers: FNV-64a over the configuration's
// canonical JSON. Two predictors accept each other's snapshots exactly when
// their configurations marshal identically. It panics if cfg does not
// marshal; configurations in this codebase are plain data structs.
func Fingerprint(cfg any) uint64 {
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("snapshot: config does not marshal: %v", err))
	}
	return fnv64a(b)
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// section is one typed payload inside a container.
type section struct {
	kind string
	enc  *Enc
}

// Container accumulates named sections and serializes them under a
// BLBPSNP1 header. Build with NewContainer, fill each section through the
// Enc returned by Section, then write the whole snapshot with EncodeTo.
type Container struct {
	name        string
	fingerprint uint64
	sections    []section
}

// NewContainer returns an empty container owned by the named predictor
// with the given configuration fingerprint (see Fingerprint).
func NewContainer(name string, fingerprint uint64) *Container {
	return &Container{name: name, fingerprint: fingerprint}
}

// Section appends a new named section and returns its encoder. Kinds
// should be unique within a container; Decoded.Section finds the first
// match.
func (c *Container) Section(kind string) *Enc {
	e := &Enc{}
	c.sections = append(c.sections, section{kind: kind, enc: e})
	return e
}

// EncodeTo writes the container: magic, version, name, fingerprint,
// section count, then per section its kind, payload length, FNV-64a
// payload checksum, and payload.
func (c *Container) EncodeTo(w io.Writer) error {
	var hdr Enc
	hdr.buf = append(hdr.buf, Magic[:]...)
	hdr.U64(FormatVersion)
	hdr.String(c.name)
	hdr.U64(c.fingerprint)
	hdr.Int(len(c.sections))
	if _, err := w.Write(hdr.buf); err != nil {
		return err
	}
	for _, s := range c.sections {
		var sh Enc
		sh.String(s.kind)
		sh.Int(len(s.enc.buf))
		sh.U64(fnv64a(s.enc.buf))
		if _, err := w.Write(sh.buf); err != nil {
			return err
		}
		if _, err := w.Write(s.enc.buf); err != nil {
			return err
		}
	}
	return nil
}

// Decoded is a fully read and checksum-verified container.
type Decoded struct {
	// Name and Fingerprint identify the snapshot's owner.
	Name        string
	Fingerprint uint64

	kinds    []string
	payloads [][]byte
}

// ReadContainer reads and verifies a whole container from r. It checks the
// magic and version, that the stored predictor name and config fingerprint
// equal wantName/wantFingerprint (ErrMismatch otherwise), and every
// section's checksum (ErrCorrupt on any damage), so a successful return
// means the payloads are intact and belong to the requesting predictor.
func ReadContainer(r io.Reader, wantName string, wantFingerprint uint64) (*Decoded, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	var hb [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, hb[:]); err != nil {
			return 0, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
		}
		return leU64(hb[:]), nil
	}
	readString := func(max int) (string, error) {
		n, err := readU64()
		if err != nil {
			return "", err
		}
		if n > uint64(max) {
			return "", fmt.Errorf("%w: string length %d exceeds bound %d", ErrCorrupt, n, max)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", fmt.Errorf("%w: truncated string: %v", ErrCorrupt, err)
		}
		return string(b), nil
	}
	version, err := readU64()
	if err != nil {
		return nil, err
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d (have %d)", ErrCorrupt, version, FormatVersion)
	}
	name, err := readString(maxNameLen)
	if err != nil {
		return nil, err
	}
	fingerprint, err := readU64()
	if err != nil {
		return nil, err
	}
	if name != wantName {
		return nil, fmt.Errorf("%w: snapshot of %q, restoring %q", ErrMismatch, name, wantName)
	}
	if fingerprint != wantFingerprint {
		return nil, fmt.Errorf("%w: config fingerprint %016x, want %016x", ErrMismatch, fingerprint, wantFingerprint)
	}
	nsec, err := readU64()
	if err != nil {
		return nil, err
	}
	if nsec > maxSections {
		return nil, fmt.Errorf("%w: section count %d exceeds bound %d", ErrCorrupt, nsec, maxSections)
	}
	d := &Decoded{Name: name, Fingerprint: fingerprint}
	for i := uint64(0); i < nsec; i++ {
		kind, err := readString(maxKindLen)
		if err != nil {
			return nil, err
		}
		plen, err := readU64()
		if err != nil {
			return nil, err
		}
		if plen > maxSectionLen {
			return nil, fmt.Errorf("%w: section %q length %d exceeds bound %d", ErrCorrupt, kind, plen, maxSectionLen)
		}
		sum, err := readU64()
		if err != nil {
			return nil, err
		}
		payload, err := readPayload(r, int(plen))
		if err != nil {
			return nil, fmt.Errorf("%w: truncated section %q: %v", ErrCorrupt, kind, err)
		}
		if got := fnv64a(payload); got != sum {
			return nil, fmt.Errorf("%w: section %q checksum %016x, want %016x", ErrCorrupt, kind, got, sum)
		}
		d.kinds = append(d.kinds, kind)
		d.payloads = append(d.payloads, payload)
	}
	return d, nil
}

// readPayload reads a section's plen payload bytes. Until its checksum
// verifies, plen is only a claim, so the buffer starts at payloadReserve
// bytes at most and, like the trace decoders' growCapped, at least doubles
// as bytes arrive but never past plen: a lying length fails at truncation
// with a buffer no larger than the reserve or twice the bytes read,
// whichever is larger.
func readPayload(r io.Reader, plen int) ([]byte, error) {
	buf := make([]byte, 0, min(plen, payloadReserve))
	for len(buf) < plen {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(plen, 2*cap(buf))-len(buf))
		}
		n, err := io.ReadFull(r, buf[len(buf):min(cap(buf), plen)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Section returns a decoder over the named section's verified payload, or
// an error (wrapping ErrCorrupt) when the container has no such section.
func (d *Decoded) Section(kind string) (*Dec, error) {
	for i, k := range d.kinds {
		if k == kind {
			return &Dec{data: d.payloads[i]}, nil
		}
	}
	return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, kind)
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
