// Package stream is the persistent estimation transport: a framed
// binary protocol over one long-lived TCP connection per client, whose
// server side coalesces concurrently in-flight single estimates from
// many connections into one batched dispatch through the serving
// pool's cache and compiled-tree hot path.
//
// The HTTP endpoint cannot offer this: its 30s WriteTimeout (correct
// for request/response traffic) forbids long-lived streams, and a
// sequential HTTP client pays connection, header and dispatch cost per
// plan — which is exactly the per-request materialization the batched
// prediction path (PR 3) removed for clients that assemble their own
// batches. The stream transport recovers that speedup for clients
// that cannot batch: each connection keeps its one-request-at-a-time
// call pattern, and the server's micro-batcher assembles the batch
// across connections instead.
//
// Frame layout (all integers little-endian), mirroring the
// observation-log framing in internal/feedback:
//
//	uint32 magic "RST1"
//	uint32 payload length
//	uint32 CRC-32 (IEEE) of the payload
//	payload:
//	  byte   frame type (FrameEstimate, FrameResponse, FrameError)
//	  uint64 sequence ID (echoed verbatim on the response)
//	  body   JSON
//
// Request bodies carry the same JSON the POST /estimate endpoint
// accepts ({schema, resource|resources, timeout_ms, plan}); response
// bodies are byte-identical to the corresponding /estimate response
// body, and error bodies are the {error, code} envelope with the same
// stable codes. The CRC rejects torn or corrupted frames outright —
// on a persistent connection a desynchronized framing layer would
// otherwise misattribute every subsequent response.
package stream

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/serve"
)

// Frame types.
const (
	// FrameEstimate is a client→server estimation request.
	FrameEstimate = 1
	// FrameResponse answers one FrameEstimate with the /estimate
	// response body for its plan.
	FrameResponse = 2
	// FrameError answers one FrameEstimate with the structured
	// {error, code} envelope.
	FrameError = 3
)

const (
	frameMagic  = 0x52535431 // "RST1"
	frameHeader = 12
	// payload = type byte + sequence ID + body.
	framePrefix = 1 + 8
	// maxFrameSize bounds a frame payload — same budget as the HTTP
	// endpoint's request body (maxEstimateBody).
	maxFrameSize = 8 << 20
)

// ErrCorrupt marks framing damage: bad magic, implausible length, CRC
// mismatch, or a torn read mid-frame. The connection cannot be
// resynchronized past it and must be closed.
var ErrCorrupt = errors.New("stream: corrupt frame")

// Frame is one decoded protocol frame.
type Frame struct {
	// Type is FrameEstimate, FrameResponse or FrameError.
	Type byte
	// Seq is the request's sequence ID, chosen by the client and echoed
	// on the response — the demultiplexing key that lets responses
	// return in any order.
	Seq uint64
	// Body is the frame's JSON payload.
	Body []byte
}

// AppendFrame appends f's framed encoding to dst and returns the
// extended slice.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	n := framePrefix + len(f.Body)
	if n > maxFrameSize {
		return nil, fmt.Errorf("stream: frame payload %d bytes exceeds limit", n)
	}
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	// The payload is assembled in place behind a checksum slot filled
	// in last, so nothing is staged outside dst.
	payload := len(dst) + 4
	dst = append(dst, 0, 0, 0, 0, f.Type)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = append(dst, f.Body...)
	binary.LittleEndian.PutUint32(dst[payload-4:], crc32.ChecksumIEEE(dst[payload:]))
	return dst, nil
}

// Request is the wire body of a FrameEstimate — the same JSON the
// POST /estimate endpoint accepts.
type Request struct {
	// Schema routes to a published model; empty uses the wildcard.
	Schema string `json:"schema,omitempty"`
	// Resource is "cpu" (default) or "io". Ignored when Resources is
	// present.
	Resource string `json:"resource,omitempty"`
	// Resources selects several resources at once: resource names, or
	// "all" anywhere in the list for every kind. Decoding also takes the
	// endpoint's string forms ("all", a single name); an explicit []
	// is an error, not the absent field.
	Resources serve.ResourceSet `json:"resources,omitempty"`
	// TimeoutMS overrides the service's default deadline when > 0.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Plan is the wire-encoded physical plan (plan.EncodeJSON).
	Plan json.RawMessage `json:"plan"`
}

// Error is the decoded FrameError body: the same {error, code}
// envelope — with the same stable codes — the HTTP endpoints return.
type Error struct {
	Message string `json:"error"`
	Code    string `json:"code"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("stream: server error (%s): %s", e.Code, e.Message)
}

// ErrorFrame builds the FrameError that answers seq.
func ErrorFrame(seq uint64, msg, code string) *Frame {
	body, _ := json.Marshal(Error{Message: msg, Code: code}) // two strings: cannot fail
	return &Frame{Type: FrameError, Seq: seq, Body: body}
}

// ReadFrame reads one framed record from br. io.EOF marks a clean
// frame boundary (the peer closed between frames); ErrCorrupt
// (possibly wrapped) marks garbage, a torn frame, or a CRC mismatch.
func ReadFrame(br *bufio.Reader) (*Frame, error) {
	n, sum, err := peekHeader(br)
	if err != nil {
		return nil, err
	}
	_, _ = br.Discard(frameHeader) // just peeked: cannot fail
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("%w: torn payload: %w", ErrCorrupt, err)
	}
	f := new(Frame)
	if err := f.setPayload(sum, payload); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFrameInPlace is ReadFrame without the copy: a frame that fits
// br's buffer is checked where it lies and f.Body aliases the buffer,
// valid only until the next read from br. A frame larger than the
// buffer goes through ReadFrame, so both accept and reject exactly the
// same byte streams, with the same io.EOF / ErrCorrupt classes.
func ReadFrameInPlace(br *bufio.Reader, f *Frame) error {
	n, sum, err := peekHeader(br)
	if err != nil {
		return err
	}
	if frameHeader+n > br.Size() {
		big, err := ReadFrame(br)
		if err != nil {
			return err
		}
		*f = *big
		return nil
	}
	whole, err := br.Peek(frameHeader + n)
	if err != nil {
		return fmt.Errorf("%w: torn payload: %w", ErrCorrupt, err)
	}
	if err := f.setPayload(sum, whole[frameHeader:]); err != nil {
		return err
	}
	_, _ = br.Discard(len(whole)) // just peeked: cannot fail
	return nil
}

// peekHeader validates the header of the frame at the head of br and
// returns its payload length and checksum, consuming nothing.
func peekHeader(br *bufio.Reader) (n int, sum uint32, err error) {
	header, err := br.Peek(frameHeader)
	if err != nil {
		switch {
		case len(header) > 0:
			return 0, 0, fmt.Errorf("%w: torn header: %w", ErrCorrupt, err)
		case errors.Is(err, io.EOF):
			return 0, 0, io.EOF // clean end between frames
		}
		// Double-wrap so callers can still see the transport cause
		// (net.ErrClosed, deadline) behind the corruption marker.
		return 0, 0, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if magic := binary.LittleEndian.Uint32(header[0:]); magic != frameMagic {
		return 0, 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	length := binary.LittleEndian.Uint32(header[4:])
	if length < framePrefix || length > maxFrameSize {
		return 0, 0, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, length)
	}
	return int(length), binary.LittleEndian.Uint32(header[8:]), nil
}

// setPayload checks payload against its header's checksum and points f
// at it. Nothing of the payload is trusted before the checksum matches.
func (f *Frame) setPayload(sum uint32, payload []byte) error {
	if crc32.ChecksumIEEE(payload) != sum {
		return fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	switch payload[0] {
	case FrameEstimate, FrameResponse, FrameError:
	default:
		return fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, payload[0])
	}
	*f = Frame{Type: payload[0], Seq: binary.LittleEndian.Uint64(payload[1:]), Body: payload[framePrefix:]}
	return nil
}
