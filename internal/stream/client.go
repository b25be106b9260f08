package stream

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// ErrConnLost reports that the streaming connection died, while a
// request was in flight or before the call. A Client's first failure
// is sticky, so every later call fails with it too. Estimates are
// idempotent: a caller may retry on a freshly dialed Client or over
// POST /estimate.
var ErrConnLost = errors.New("stream: connection lost")

// errClientClosed is the cause a Close records.
var errClientClosed = errors.New("stream: client closed")

// dialTimeout bounds Dial's connect.
const dialTimeout = 5 * time.Second

// Client is one streaming connection. It is safe for concurrent use:
// requests from many goroutines interleave on the one connection, each
// tagged with a sequence ID, and a reader goroutine demultiplexes
// responses back to their callers — out-of-order completion included.
// Outbound frames funnel through a FrameWriter, so pipelined callers
// share one write per burst instead of serializing on a syscall each.
//
// The first failure — a read or write error, the server hanging up, a
// Close — is sticky: in-flight and later calls fail with it, wrapped
// in ErrConnLost, and Err reports it. Nothing redials; a caller that
// wants the server back dials a new Client.
type Client struct {
	c   net.Conn
	w   *FrameWriter
	seq atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]chan result // nil once err is set
	err     error                  // first failure, wrapping ErrConnLost
}

// result is one demultiplexed answer.
type result struct {
	body  []byte
	isErr bool
}

// chanPool recycles waiter channels across calls; a pipelined caller
// otherwise allocates one per request. Only channels that completed
// normally are returned (a canceled waiter's channel may still
// receive a late send; a failed connection's channels are closed).
var chanPool = sync.Pool{New: func() any { return make(chan result, 1) }}

func resultChan() chan result { return chanPool.Get().(chan result) }

// Dial opens a streaming connection to a resserve -stream-addr
// listener, giving up on the connect after 5 s.
func Dial(addr string) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		c:       nc,
		w:       NewFrameWriter(nc, defaultWriteTimeout, nil),
		waiters: make(map[uint64]chan result),
	}
	go cl.readLoop()
	go func() { cl.fail(cl.w.Run()) }()
	return cl, nil
}

// Close tears the connection down; in-flight and later calls fail.
func (cl *Client) Close() error {
	cl.fail(errClientClosed)
	return nil
}

// Err returns the client's sticky failure, wrapping ErrConnLost, or
// nil while the connection is live.
func (cl *Client) Err() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.err
}

// EstimateRaw sends one estimate over the stream and returns the raw
// response body — byte-identical to what POST /estimate would have
// returned for the same request. The benches and the bit-identity
// tests consume this; Estimate decodes it.
func (cl *Client) EstimateRaw(ctx context.Context, req *Request) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return cl.EstimateBytes(ctx, body)
}

// EstimateBytes is EstimateRaw for a pre-encoded request body (the
// JSON encoding of Request). Callers issuing the same requests
// repeatedly — replayers, load generators — skip the per-call
// marshal, which re-compacts the embedded plan each time.
//
// The answer is the caller's, and appending to it never touches
// another. It shares one allocation with the answers that arrived in
// the same socket read, though, so an answer kept for long keeps up to
// ReadBufferSize (64 KiB) of them alive with it; a caller that keeps
// answers, as a cache does, keeps a copy.
func (cl *Client) EstimateBytes(ctx context.Context, body []byte) ([]byte, error) {
	seq := cl.seq.Add(1)
	ch := resultChan()
	cl.mu.Lock()
	if cl.err != nil {
		err := cl.err
		cl.mu.Unlock()
		return nil, err
	}
	cl.waiters[seq] = ch
	cl.mu.Unlock()

	if err := cl.w.Send(ctx, &Frame{Type: FrameEstimate, Seq: seq, Body: body}); err != nil {
		cl.mu.Lock()
		delete(cl.waiters, seq)
		cl.mu.Unlock()
		if errors.Is(err, ErrConnLost) {
			// The writer is dead, so the connection is: record it here
			// rather than wait for the writer goroutine to.
			cl.fail(err)
			return nil, cl.Err()
		}
		return nil, err // ctx done while the queue was full, or body over the frame limit
	}

	select {
	case r, ok := <-ch:
		if !ok {
			return nil, cl.Err()
		}
		chanPool.Put(ch)
		if r.isErr {
			var e Error
			if jerr := json.Unmarshal(r.body, &e); jerr != nil {
				return nil, fmt.Errorf("stream: undecodable error frame: %v", jerr)
			}
			return nil, &e
		}
		return r.body, nil
	case <-ctx.Done():
		cl.mu.Lock()
		delete(cl.waiters, seq)
		cl.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Estimate sends one estimate over the stream and decodes the
// response. Server-side failures return *Error carrying the same
// stable code the HTTP endpoint would have used.
func (cl *Client) Estimate(ctx context.Context, req *Request) (*serve.Response, error) {
	body, err := cl.EstimateRaw(ctx, req)
	if err != nil {
		return nil, err
	}
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("stream: decode response: %w", err)
	}
	return &resp, nil
}

// answerReader reads a connection's answers. Each frame is read in
// place into the one Frame and its body copied out of the read buffer
// into an arena, allocated only when the current one runs out and then
// sized to the answer plus what is left of the socket read it came in,
// so one allocation holds a whole burst. Each body is clipped to its
// own capacity: an append to one can never reach a neighbour's bytes.
type answerReader struct {
	br    *bufio.Reader
	f     Frame
	arena []byte // the current arena's unused tail
}

// next reads the next frame. Its Body is the caller's to keep; the
// Frame itself is overwritten by the next call.
func (a *answerReader) next() (*Frame, error) {
	if err := ReadFrameInPlace(a.br, &a.f); err != nil {
		return nil, err
	}
	n := len(a.f.Body)
	if frameHeader+framePrefix+n > a.br.Size() {
		return &a.f, nil // too big for the buffer: read into an allocation of its own
	}
	if n > len(a.arena) {
		a.arena = make([]byte, n+a.br.Buffered())
	}
	body := a.arena[:n:n]
	copy(body, a.f.Body)
	a.arena, a.f.Body = a.arena[n:], body
	return &a.f, nil
}

// readLoop demultiplexes response frames to their waiters. On any read
// failure every in-flight call fails with the same error — a broken
// stream cannot be resynchronized.
func (cl *Client) readLoop() {
	answers := answerReader{br: bufio.NewReaderSize(cl.c, ReadBufferSize)}
	for {
		f, err := answers.next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("stream: connection closed by server: %w", io.EOF)
			}
			cl.fail(err)
			return
		}
		if f.Type != FrameResponse && f.Type != FrameError {
			cl.fail(fmt.Errorf("stream: unexpected frame type %d from server", f.Type))
			return
		}
		cl.mu.Lock()
		ch, ok := cl.waiters[f.Seq]
		delete(cl.waiters, f.Seq)
		cl.mu.Unlock()
		if ok {
			// Buffered (capacity 1): a waiter that gave up on its context
			// deleted itself, and a late send must not block the reader.
			ch <- result{body: f.Body, isErr: f.Type == FrameError}
		}
	}
}

// fail records the client's first failure, tears the connection down
// and closes every in-flight waiter's channel (their calls fail fast
// with the recorded error). Later calls are no-ops.
func (cl *Client) fail(cause error) {
	if !errors.Is(cause, ErrConnLost) {
		cause = fmt.Errorf("%w: %w", ErrConnLost, cause)
	}
	cl.mu.Lock()
	if cl.err != nil {
		cl.mu.Unlock()
		return
	}
	cl.err = cause
	waiters := cl.waiters
	cl.waiters = nil
	cl.mu.Unlock()
	cl.w.Close()
	_ = cl.c.Close()
	for _, ch := range waiters {
		close(ch)
	}
}
