// Package stream is the persistent estimation transport: a framed
// binary protocol over one long-lived TCP connection per client, whose
// server side coalesces concurrently in-flight single estimates from
// many connections into one batched dispatch through the service's
// cache and compiled-tree hot path.
//
// The HTTP endpoint cannot offer this: its 30s WriteTimeout (correct
// for request/response traffic) forbids long-lived streams, and a
// sequential HTTP client pays connection, header and dispatch cost per
// plan — which is exactly the per-request materialization the batched
// prediction path (PR 3) removed for clients that assemble their own
// batches. The stream transport recovers that speedup for clients
// that cannot batch: each connection keeps its one-request-at-a-time
// call pattern, and the server's micro-batcher assembles the batch
// across connections instead, by one rule: a request is sent on at once
// when nothing for its route is outstanding and joins the next batch
// while something is, so a lone caller never waits for company.
//
// Frame layout: the {magic "RST1", payload length, CRC-32} header of
// internal/frame — the one the observation log also writes — in front
// of a payload of (integers little-endian)
//
//	byte   frame type (FrameEstimate, FrameResponse, FrameError)
//	uint64 sequence ID (echoed verbatim on the response)
//	body   JSON
//
// Request bodies are POST /estimate bodies ({schema,
// resource|resources, timeout_ms, plan}) — serve's request type, decoded
// by serve's decoder, so every body is accepted or refused, in the same
// words, as POST /estimate does; FuzzEnvelopeDecode in internal/serve
// pins the decoder's walker against its encoding/json fallback for the
// key sets used here. Response bodies are
// byte-identical to the corresponding /estimate response body, and
// error bodies are the {error, code} envelope with the same stable
// codes. This package keeps framing, connections and coalescing; it
// owns no request format. The CRC rejects torn or corrupted frames
// outright — on a persistent connection a desynchronized framing layer
// would otherwise misattribute every subsequent response.
//
// Before any of that, the server asks its service's response cache
// (serve.Service.Replay) with the frame's bytes: a body the service has
// answered before, on this transport or over POST /estimate, is
// answered from the read loop without being decoded. The cache is the
// service's, not this package's; the server only counts its own frames.
//
// The Go client (Client) sends a request in one of two forms, over one
// table of waiting requests that its read loop completes. EstimateBytes
// (with EstimateRaw and Estimate over it) sends a body and blocks until
// the answer, the server's error or the connection's failure. Start
// sends a body and returns at once; the read loop hands the outcome to
// the caller's Callback, which must not block, and Cancel takes a
// request back. Start never waits for room in the write queue (it fails
// with ErrQueueFull instead), so a caller that must not block — the
// router forwarding a cache miss from its own listener's read loop —
// parks no goroutine, channel or context per request.
package stream

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/frame"
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
	frameHeader = frame.HeaderSize
	// payload = type byte + sequence ID + body.
	framePrefix = 1 + 8
	// maxFrameSize bounds a frame payload: a frame carries exactly the
	// bodies POST /estimate accepts.
	maxFrameSize = framePrefix + serve.MaxEstimateBody
)

// ErrCorrupt marks framing damage: bad magic, implausible length, CRC
// mismatch, or a torn read mid-frame. The connection cannot be
// resynchronized past it and must be closed.
var ErrCorrupt = errors.New("stream: corrupt frame")

var format = frame.Format{Magic: 0x52535431 /* "RST1" */, Min: framePrefix, Max: maxFrameSize, Corrupt: ErrCorrupt}

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

// fits reports whether a frame may carry body.
func fits(body []byte) bool { return framePrefix+len(body) <= maxFrameSize }

// AppendFrame appends f's framed encoding to dst and returns the
// extended slice.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if !fits(f.Body) {
		return nil, fmt.Errorf("stream: frame payload %d bytes exceeds limit", framePrefix+len(f.Body))
	}
	// The payload is assembled in place behind a header filled in last,
	// so nothing is staged outside dst.
	at := len(dst)
	dst = append(frame.Reserve(dst), f.Type)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = append(dst, f.Body...)
	format.Seal(dst, at)
	return dst, nil
}

// Error is the decoded FrameError body: serve's envelope, the one the
// HTTP endpoints refuse with, with the same stable codes. A frame
// carries only the message and the code.
type Error = serve.Error

// Request is the wire body of a FrameEstimate: serve's POST /estimate
// request. The server decodes it with serve.DecodeRequest and
// serve.EstimateKeys, building the plan in the same pass.
type Request = serve.EstimateRequest

// DecodeRequest decodes one request body into req as POST /estimate
// does, its plan left as validated wire bytes (serve.ForwardKeys).
func DecodeRequest(body []byte, req *Request) error {
	env, err := serve.DecodeRequest(body, serve.ForwardKeys)
	*req = Request{Schema: env.Schema, Resource: env.Resource, Resources: env.Resources,
		TimeoutMS: env.TimeoutMS, Plan: env.Plan}
	return err
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
	payload, err := format.Read(br)
	if err != nil {
		return nil, err
	}
	f := new(Frame)
	if err := f.setPayload(payload); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFrameInPlace is ReadFrame without the copy: a frame that fits
// br's buffer is checked where it lies and f.Body aliases the buffer,
// valid only until the next read from br. A frame larger than the
// buffer is read as ReadFrame reads it, so both accept and reject
// exactly the same byte streams, with the same io.EOF / ErrCorrupt
// classes.
func ReadFrameInPlace(br *bufio.Reader, f *Frame) error {
	payload, err := format.ReadInPlace(br)
	if err != nil {
		return err
	}
	return f.setPayload(payload)
}

// setPayload points f at a payload whose checksum has matched.
func (f *Frame) setPayload(payload []byte) error {
	switch payload[0] {
	case FrameEstimate, FrameResponse, FrameError:
	default:
		return fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, payload[0])
	}
	*f = Frame{Type: payload[0], Seq: binary.LittleEndian.Uint64(payload[1:]), Body: payload[framePrefix:]}
	return nil
}
