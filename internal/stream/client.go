package stream

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
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
// Outbound frames funnel through a FrameWriter, one write per wake-up.
//
// Pipelined callers share a write by the wave rule: Nagle's (RFC 896)
// at the request level, with the callers' own answers for its timer.
// When the read loop starts handing out the answers one socket read
// brought (a burst), it notes how many there are, and each request
// sent after pays off one of them. A request that leaves some unpaid is
// held: queued without waking the writer. The one that pays the last
// wakes it, and the wave leaves in one write. Held requests also leave
// when the next burst arrives, flushed before it is handed out. Nothing
// is held while no other request is on the wire (its answer is that
// next burst), nor after a burst that arrived with the one before it
// unpaid, as happens when callers ask once and go, until a wave is
// paid off in full again. On the stream_hot benchmark (2 connections
// of 64 closed-loop callers) this took the client from 8.1 request
// frames per socket write to 19.2.
//
// The first failure — a read or write error, the server hanging up, a
// Close — is sticky: in-flight and later calls fail with it, wrapped
// in ErrConnLost, and Err reports it. Nothing redials; a caller that
// wants the server back dials a new Client.
type Client struct {
	c   net.Conn
	w   *FrameWriter
	seq atomic.Uint64

	// sending queues requests in the order of their hold decisions, so
	// the wake-up that ends a wave finds the wave's held requests queued.
	// A sender waiting for room in a full queue holds it; the read loop
	// never takes it, so answers keep being read meanwhile.
	sending sync.Mutex

	mu      sync.Mutex
	waiters map[uint64]chan result // nil once err is set
	err     error                  // first failure, wrapping ErrConnLost

	// The wave rule's count, under mu.
	unpaid  int  // answers of the last burst that no request has paid off
	holding bool // the last burst found the one before it paid off
	held    int  // requests queued without a wake-up
	sent    int  // requests past the writer's wake-up whose answers no read has brought
	// releases counts the moments held requests were counted as sent,
	// each just before the writer is woken (written under mu).
	releases atomic.Uint64
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
	return newClient(nc), nil
}

// newClient runs a Client over an open connection.
func newClient(nc net.Conn) *Client {
	cl := &Client{
		c:       nc,
		w:       NewFrameWriter(nc, defaultWriteTimeout, nil),
		waiters: make(map[uint64]chan result),
	}
	go cl.readLoop()
	go func() { cl.fail(cl.w.Run()) }()
	return cl
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
	cl.sending.Lock()
	cl.mu.Lock()
	if cl.err != nil {
		err := cl.err
		cl.mu.Unlock()
		cl.sending.Unlock()
		return nil, err
	}
	cl.waiters[seq] = ch
	hold := cl.pay()
	releases := cl.releases.Load()
	cl.mu.Unlock()
	// Send, or for a held request Queue; either gives up on ctx while
	// the queue is full.
	err := cl.w.append(ctx, &Frame{Type: FrameEstimate, Seq: seq, Body: body}, !hold)
	cl.sending.Unlock()
	if err != nil {
		cl.mu.Lock()
		delete(cl.waiters, seq)
		if hold && cl.releases.Load() == releases {
			cl.held--
		} else {
			cl.sent--
		}
		cl.mu.Unlock()
		if !hold {
			cl.w.Flush() // the requests held for this one's wake-up
		}
		if errors.Is(err, ErrConnLost) {
			// The writer is dead, so the connection is: record it here
			// rather than wait for the writer goroutine to.
			cl.fail(err)
			return nil, cl.Err()
		}
		return nil, err // ctx done while the queue was full, or body over the frame limit
	}
	if hold && cl.releases.Load() != releases {
		cl.w.Flush() // released by a burst before it was queued: the burst's flush missed it
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

// pay counts one request against the last burst and reports whether
// it is held. Called under mu.
func (cl *Client) pay() (hold bool) {
	hold = cl.holding && cl.unpaid > 1 && cl.sent > 0
	if cl.unpaid > 0 {
		cl.unpaid--
	}
	if hold {
		cl.held++
	} else {
		cl.sent++
		cl.release()
	}
	return hold
}

// release counts the held requests as sent, ahead of the wake-up that
// sends them, and reports whether there were any. Called under mu.
func (cl *Client) release() bool {
	if cl.held == 0 {
		return false
	}
	cl.sent += cl.held
	cl.held = 0
	cl.releases.Add(1)
	return true
}

// startBurst notes the k answers of a socket read, before any of them
// is handed out, and reports whether held requests wait for the flush
// that sends them. Called under mu.
func (cl *Client) startBurst(k int) (flush bool) {
	cl.holding = cl.unpaid == 0
	cl.unpaid = k
	cl.sent -= k
	return cl.release()
}

// answerReader reads a connection's answers. Each frame is read in
// place into the one Frame. The first answer of a socket read is copied
// out of the read buffer together with every whole answer read with
// it, in one append into a fresh arena (an append does not clear what
// it fills), and the burst's later answers are handed out where their
// bytes lie in it. Each body is clipped to its own capacity: an append
// to one can never reach a neighbour's bytes.
type answerReader struct {
	br    *bufio.Reader
	f     Frame
	arena []byte // the current burst's answers not yet read, framed
	burst int    // answers in the burst the last frame began; 0 if it went on with one
}

// next reads the next frame. Its Body is the caller's to keep; the
// Frame itself is overwritten by the next call.
func (a *answerReader) next() (*Frame, error) {
	if err := ReadFrameInPlace(a.br, &a.f); err != nil {
		return nil, err
	}
	n := len(a.f.Body)
	size := frameHeader + framePrefix + n
	if size > a.br.Size() {
		a.burst = 1
		return &a.f, nil // too big for the buffer: read into an allocation of its own
	}
	if len(a.arena) >= size {
		a.f.Body, a.arena, a.burst = a.arena[size-n:size:size], a.arena[size:], 0
		return &a.f, nil
	}
	buffered, _ := a.br.Peek(a.br.Buffered()) // cannot fail
	rest, k := wholeFrames(buffered)
	if k > 0 {
		a.arena = append(a.f.Body[:n:n], rest...) // the clipped capacity makes it allocate
	} else {
		a.arena = bytes.Clone(a.f.Body)
	}
	a.f.Body, a.arena, a.burst = a.arena[:n:n], a.arena[n:], 1+k
	return &a.f, nil
}

// wholeFrames returns the leading frames of b that it holds whole,
// unchecked, and how many there are.
func wholeFrames(b []byte) ([]byte, int) {
	at, k := 0, 0
	for len(b)-at >= frameHeader {
		size := frameHeader + int(binary.LittleEndian.Uint32(b[at+4:])) // the header's payload length
		if size > len(b)-at {
			break
		}
		at, k = at+size, k+1
	}
	return b[:at], k
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
		flush := answers.burst > 0 && cl.startBurst(answers.burst)
		ch, ok := cl.waiters[f.Seq]
		delete(cl.waiters, f.Seq)
		cl.mu.Unlock()
		if flush {
			cl.w.Flush()
		}
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
