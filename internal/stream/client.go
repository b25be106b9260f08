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
// A request is sent in one of two forms over one waiter table. Start
// sends it and returns: the read loop hands the answer to a Callback,
// for a caller that must not park a goroutine per request, as the
// router forwarding from its listener's read loop. EstimateBytes (and
// EstimateRaw, Estimate) sends it and waits for the answer, the same
// callback delivering it on a channel.
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
	// A sender waits for room in a full queue before it takes sending, so
	// no other sender waits behind one that waits for room, and Start,
	// which does not wait for room, never waits for long. The read loop
	// never takes it.
	sending sync.Mutex

	mu      sync.Mutex
	waiters map[uint64]Callback // nil once err is set
	err     error               // first failure, wrapping ErrConnLost

	// The wave rule's count, under mu.
	unpaid  int  // answers of the last burst that no request has paid off
	holding bool // the last burst found the one before it paid off
	held    int  // requests queued without a wake-up
	sent    int  // requests past the writer's wake-up whose answers no read has brought
	// releases counts the moments held requests were counted as sent,
	// each just before the writer is woken (written under mu).
	releases atomic.Uint64
}

// Callback takes the outcome of one request sent with Client.Start.
type Callback interface {
	// Complete is called once per request: with the answer body and a
	// nil error, or with a nil body and the request's failure — *Error
	// for an error frame, the connection's sticky failure (wrapping
	// ErrConnLost) when it was lost first. It runs on the client's read
	// loop, or on whichever goroutine found the connection failed, and
	// must not block: every later answer of the connection waits for it.
	// The body is the callee's, as EstimateBytes' answer is the caller's.
	Complete(body []byte, err error)
}

// result is one request's outcome, as a Callback takes it.
type result struct {
	body []byte
	err  error
}

// waiter is the Callback of a blocking call: it hands the outcome to
// the caller waiting on the channel, whose one slot keeps the read loop
// from ever blocking on it.
type waiter chan result

func (w waiter) Complete(body []byte, err error) { w <- result{body, err} }

// waiterPool recycles waiters across calls; a pipelined caller
// otherwise allocates one per request. A waiter goes back only once
// nothing can complete it any more: it was completed and emptied, or
// taken back from the table before anything completed it.
var waiterPool = sync.Pool{New: func() any { return make(waiter, 1) }}

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
		waiters: make(map[uint64]Callback),
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
	w := waiterPool.Get().(waiter)
	seq, err := cl.start(ctx, body, w)
	if err != nil {
		waiterPool.Put(w)
		return nil, err
	}
	if ctx.Done() == nil {
		// Nothing can cancel the call: the answer or the connection's
		// failure is all there is to wait for.
		r := <-w
		waiterPool.Put(w)
		return r.body, r.err
	}
	select {
	case r := <-w:
		waiterPool.Put(w)
		return r.body, r.err
	case <-ctx.Done():
		if cl.Cancel(seq) {
			waiterPool.Put(w)
		}
		return nil, ctx.Err()
	}
}

// Start sends one request body, as EstimateBytes does, without waiting
// for the answer: cb is called with it, or with the connection's
// failure, once the read loop has it (see Callback). It returns the
// request's sequence ID, which Cancel takes. Start never blocks: with
// the connection's write queue at its bound it fails with
// ErrQueueFull. When Start fails, cb is never called.
func (cl *Client) Start(body []byte, cb Callback) (uint64, error) {
	return cl.start(nil, body, cb)
}

// Cancel takes back the request Start sent as seq, and reports whether
// it did: true means its Callback will not be called, false that it has
// been or is being called. A late answer to a cancelled request is
// dropped.
func (cl *Client) Cancel(seq uint64) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	_, ok := cl.waiters[seq]
	delete(cl.waiters, seq)
	return ok
}

// start files cb in the waiter table under a fresh sequence ID and
// sends body under it, by the wave rule. While the write queue is full
// it waits for room until ctx is done; a nil ctx does not wait but
// fails with ErrQueueFull. Holding sending, it finds room, and appends
// the request without waiting: every append to the queue holds it.
func (cl *Client) start(ctx context.Context, body []byte, cb Callback) (uint64, error) {
	seq := cl.seq.Add(1)
	cl.sending.Lock()
	for ctx != nil && cl.w.full.Load() {
		cl.sending.Unlock()
		if err := cl.w.awaitRoom(ctx); err != nil {
			if errors.Is(err, ErrConnLost) {
				cl.fail(err)
				return 0, cl.Err()
			}
			return 0, err // ctx done while the queue was full
		}
		cl.sending.Lock()
	}
	cl.mu.Lock()
	if cl.err != nil {
		err := cl.err
		cl.mu.Unlock()
		cl.sending.Unlock()
		return 0, err
	}
	cl.waiters[seq] = cb
	hold := cl.pay()
	releases := cl.releases.Load()
	cl.mu.Unlock()
	// Send, or for a held request Queue.
	err := cl.w.append(ctx, &Frame{Type: FrameEstimate, Seq: seq, Body: body}, !hold)
	cl.sending.Unlock()
	if err != nil {
		cl.mu.Lock()
		_, filed := cl.waiters[seq]
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
		if !filed {
			// The connection failed meanwhile, and its failure took the
			// waiter with the rest: cb has the failure.
			return seq, nil
		}
		if errors.Is(err, ErrConnLost) {
			// The writer is dead, so the connection is: record it here
			// rather than wait for the writer goroutine to.
			cl.fail(err)
			return 0, cl.Err()
		}
		return 0, err // the queue full (Start only), or body over the frame limit
	}
	if hold && cl.releases.Load() != releases {
		cl.w.Flush() // released by a burst before it was queued: the burst's flush missed it
	}
	return seq, nil
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
		cb, ok := cl.waiters[f.Seq]
		delete(cl.waiters, f.Seq)
		cl.mu.Unlock()
		if flush {
			cl.w.Flush()
		}
		if !ok {
			continue // cancelled: its caller has gone
		}
		if f.Type == FrameError {
			cb.Complete(nil, decodeError(f.Body))
		} else {
			cb.Complete(f.Body, nil)
		}
	}
}

// decodeError returns the server error an error frame's body carries.
func decodeError(body []byte) error {
	e := new(Error)
	if err := json.Unmarshal(body, e); err != nil {
		return fmt.Errorf("stream: undecodable error frame: %v", err)
	}
	return e
}

// fail records the client's first failure, tears the connection down
// and completes every in-flight request with the recorded error. Later
// calls are no-ops.
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
	for _, cb := range waiters {
		cb.Complete(nil, cause)
	}
}
