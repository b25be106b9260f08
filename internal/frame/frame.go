// Package frame is the 12-byte record header the stream protocol
// (internal/stream) and the observation log (internal/feedback) put in
// front of every payload, all integers little-endian:
//
//	uint32 magic
//	uint32 payload length
//	uint32 CRC-32 (IEEE) of the payload
//
// Each of the two owns a Format — its magic, its payload bounds, the
// sentinel its damage reports wrap — and its payload layout; the header
// is written, peeked and checked here and nowhere else. A reader gets a
// bare io.EOF only where the input ends between records. Everything
// else — a bad magic, a length out of bounds, a checksum that does not
// match, an input that ends or fails inside a record — wraps
// Format.Corrupt, with the transport's own error (net.ErrClosed, a
// deadline) still visible behind it and a mid-record end of input
// reported as io.ErrUnexpectedEOF, never io.EOF.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the encoded size of the header.
const HeaderSize = 12

// Format is one protocol's use of the header.
type Format struct {
	Magic uint32
	// Min and Max bound the payload length, inclusive.
	Min, Max int
	// Corrupt is the owning package's sentinel for framing damage.
	Corrupt error
}

// Reserve appends room for a header to dst. The caller appends the
// payload behind it and calls Seal.
func Reserve(dst []byte) []byte {
	var header [HeaderSize]byte
	return append(dst, header[:]...)
}

// Seal fills in the header reserved at dst[at:] for the payload that
// now follows it to the end of dst. The caller has checked the payload
// against its bounds.
func (ft *Format) Seal(dst []byte, at int) {
	payload := dst[at+HeaderSize:]
	binary.LittleEndian.PutUint32(dst[at:], ft.Magic)
	binary.LittleEndian.PutUint32(dst[at+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[at+8:], crc32.ChecksumIEEE(payload))
}

// Read reads one record from br into a payload of its own.
func (ft *Format) Read(br *bufio.Reader) ([]byte, error) {
	n, sum, err := ft.peek(br)
	if err != nil {
		return nil, err
	}
	_, _ = br.Discard(HeaderSize) // just peeked: cannot fail
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, ft.torn("payload", err)
	}
	return ft.verified(sum, payload)
}

// ReadInPlace is Read without the copy: a record that fits br's buffer
// is checked where it lies and the payload aliases the buffer, valid
// only until the next read from br. A larger record goes through Read,
// so both accept and reject exactly the same byte streams.
func (ft *Format) ReadInPlace(br *bufio.Reader) ([]byte, error) {
	n, sum, err := ft.peek(br)
	if err != nil {
		return nil, err
	}
	if HeaderSize+n > br.Size() {
		return ft.Read(br)
	}
	whole, err := br.Peek(HeaderSize + n)
	if err != nil {
		return nil, ft.torn("payload", err)
	}
	_, _ = br.Discard(len(whole)) // just peeked: cannot fail
	return ft.verified(sum, whole[HeaderSize:])
}

// peek validates the header at the head of br and returns the payload
// length and checksum it announces, consuming nothing.
func (ft *Format) peek(br *bufio.Reader) (n int, sum uint32, err error) {
	header, err := br.Peek(HeaderSize)
	if err != nil {
		switch {
		case len(header) > 0:
			return 0, 0, ft.torn("header", err)
		case errors.Is(err, io.EOF):
			return 0, 0, io.EOF // clean end between records
		}
		return 0, 0, fmt.Errorf("%w: %w", ft.Corrupt, err)
	}
	if magic := binary.LittleEndian.Uint32(header[0:]); magic != ft.Magic {
		return 0, 0, fmt.Errorf("%w: bad magic %#x", ft.Corrupt, magic)
	}
	length := binary.LittleEndian.Uint32(header[4:])
	if length < uint32(ft.Min) || length > uint32(ft.Max) {
		return 0, 0, fmt.Errorf("%w: implausible payload length %d", ft.Corrupt, length)
	}
	return int(length), binary.LittleEndian.Uint32(header[8:]), nil
}

// verified returns payload once it matches its header's checksum.
// Nothing of a payload is to be trusted before that.
func (ft *Format) verified(sum uint32, payload []byte) ([]byte, error) {
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: CRC mismatch", ft.Corrupt)
	}
	return payload, nil
}

// torn reports input that ended or failed inside a record.
func (ft *Format) torn(part string, err error) error {
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: torn %s: %w", ft.Corrupt, part, err)
}
