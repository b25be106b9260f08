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
	// CRC over the payload without materializing it separately: the
	// payload is prefix ++ body, so chain the checksum.
	var prefix [framePrefix]byte
	prefix[0] = f.Type
	binary.LittleEndian.PutUint64(prefix[1:], f.Seq)
	sum := crc32.ChecksumIEEE(prefix[:])
	sum = crc32.Update(sum, crc32.IEEETable, f.Body)
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	dst = append(dst, prefix[:]...)
	return append(dst, f.Body...), nil
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

// ReadFrame reads one framed record from br. io.EOF marks a clean
// frame boundary (the peer closed between frames); ErrCorrupt
// (possibly wrapped) marks garbage, a torn frame, or a CRC mismatch.
func ReadFrame(br *bufio.Reader) (*Frame, error) {
	var header [frameHeader]byte
	if _, err := io.ReadFull(br, header[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF // clean end between frames
		}
		// Double-wrap so callers can still see the transport cause
		// (net.ErrClosed, deadline) behind the corruption marker.
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if _, err := io.ReadFull(br, header[1:]); err != nil {
		return nil, fmt.Errorf("%w: torn header: %w", ErrCorrupt, err)
	}
	if magic := binary.LittleEndian.Uint32(header[0:]); magic != frameMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	n := binary.LittleEndian.Uint32(header[4:])
	if n < framePrefix || n > maxFrameSize {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("%w: torn payload: %w", ErrCorrupt, err)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(header[8:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	f := &Frame{Type: payload[0], Seq: binary.LittleEndian.Uint64(payload[1:])}
	switch f.Type {
	case FrameEstimate, FrameResponse, FrameError:
	default:
		return nil, fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, f.Type)
	}
	f.Body = payload[framePrefix:]
	return f, nil
}
