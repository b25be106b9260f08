package stream

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// ErrConnLost reports that the streaming connection died while a
// request was in flight (or before it could be sent). Estimates are
// idempotent, so callers may retry; a reconnecting client (see
// DialOptions.Reconnect) retries once automatically after the redial.
var ErrConnLost = errors.New("stream: connection lost")

// errClientClosed is the sticky error after an explicit Close.
var errClientClosed = errors.New("stream: client closed")

// DialOptions configures DialWith. The zero value reproduces Dial:
// a 10s connect timeout and no reconnection — once the connection
// dies, every call fails with the same sticky error.
type DialOptions struct {
	// ConnectTimeout bounds each dial attempt (default 10s). In
	// reconnect mode it also bounds how long a request issued while
	// disconnected waits for the redial before failing with
	// ErrConnLost (a request context with an earlier deadline wins).
	ConnectTimeout time.Duration
	// Reconnect redials automatically after a connection loss, with
	// exponential backoff (backoffMin doubling to backoffMax) and
	// jitter between attempts. In-flight requests still fail fast with
	// ErrConnLost — a broken stream cannot be resynchronized — but
	// estimates are idempotent, so each is retried once on the fresh
	// connection before the error surfaces to the caller.
	Reconnect bool
}

// Redial backoff bounds: the first delay, and the cap it doubles to.
const (
	backoffMin = 20 * time.Millisecond
	backoffMax = 2 * time.Second
)

func (o *DialOptions) withDefaults() DialOptions {
	out := *o
	if out.ConnectTimeout <= 0 {
		out.ConnectTimeout = 10 * time.Second
	}
	return out
}

// Client is one logical streaming connection. It is safe for
// concurrent use: requests from many goroutines interleave on the one
// connection, each tagged with a sequence ID, and a reader goroutine
// demultiplexes responses back to their callers — out-of-order
// completion included. Outbound frames funnel through a FrameWriter,
// so pipelined callers share one write per burst instead of
// serializing on a syscall each.
//
// A client opened with DialOptions.Reconnect survives connection
// loss: the underlying TCP connection is redialed in the background
// (exponential backoff + jitter) and subsequent calls use the fresh
// connection. Without Reconnect, the first failure is sticky.
type Client struct {
	addr string
	opts DialOptions
	seq  atomic.Uint64

	mu     sync.Mutex
	conn   *clientConn   // live connection; nil while disconnected
	ready  chan struct{} // closed when conn is set or err turns sticky
	err    error         // sticky: Close, or a loss with Reconnect off
	closed bool
	gen    uint64 // connection generation; stale loss reports are ignored
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
// listener.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith opens a streaming connection with explicit options. The
// initial dial is synchronous even in reconnect mode: a router that
// cannot reach a replica at startup should learn immediately.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	cl := &Client{addr: addr, opts: opts.withDefaults(), ready: make(chan struct{})}
	nc, err := net.DialTimeout("tcp", addr, cl.opts.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	cl.install(nc, 0)
	return cl, nil
}

// install wires a fresh TCP connection in as the current generation
// and wakes any callers parked on ready. gen != 0 marks a redial: the
// install is dropped (false) when it raced a Close or a newer
// generation. The initial dial (gen 0) cannot lose such a race.
func (cl *Client) install(nc net.Conn, gen uint64) bool {
	cl.mu.Lock()
	if cl.closed || (gen != 0 && (cl.gen != gen || cl.conn != nil)) {
		cl.mu.Unlock()
		return false
	}
	cl.gen++
	cc := &clientConn{
		cl:      cl,
		gen:     cl.gen,
		c:       nc,
		w:       NewFrameWriter(nc, defaultWriteTimeout, nil),
		waiters: make(map[uint64]chan result),
	}
	cl.conn = cc
	select {
	case <-cl.ready:
	default:
		close(cl.ready)
	}
	cl.mu.Unlock()
	go cc.readLoop()
	go func() { cc.fail(cc.w.Run()) }()
	return true
}

// lost handles a connection-death report from generation gen. With
// Reconnect the redialer takes over; without, the error turns sticky.
func (cl *Client) lost(gen uint64, cause error) {
	cl.mu.Lock()
	if gen != cl.gen || cl.conn == nil {
		cl.mu.Unlock()
		return
	}
	cl.conn = nil
	if cl.closed || !cl.opts.Reconnect {
		if cl.err == nil {
			cl.err = cause
		}
		cl.mu.Unlock()
		return
	}
	cl.ready = make(chan struct{})
	gen = cl.gen
	cl.mu.Unlock()
	go cl.redial(gen)
}

// redial reconnects with exponential backoff and jitter until it
// succeeds or the client is closed. Each delay is drawn uniformly
// from [d/2, d) so a fleet of clients dropped by the same replica
// restart does not thundering-herd the fresh listener.
func (cl *Client) redial(gen uint64) {
	delay := backoffMin
	for {
		sleep := delay/2 + time.Duration(rand.Int64N(int64(delay/2)+1))
		time.Sleep(sleep)
		cl.mu.Lock()
		stale := cl.closed || cl.gen != gen || cl.conn != nil
		cl.mu.Unlock()
		if stale {
			return
		}
		nc, err := net.DialTimeout("tcp", cl.addr, cl.opts.ConnectTimeout)
		if err == nil {
			if !cl.install(nc, gen) {
				nc.Close()
			}
			return
		}
		if delay *= 2; delay > backoffMax {
			delay = backoffMax
		}
	}
}

// current returns the live connection, waiting (bounded by ctx and
// ConnectTimeout) for an in-progress redial when reconnecting.
func (cl *Client) current(ctx context.Context) (*clientConn, error) {
	cl.mu.Lock()
	cc, err := cl.conn, cl.err
	cl.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if cc != nil {
		return cc, nil
	}
	deadline := time.NewTimer(cl.opts.ConnectTimeout)
	defer deadline.Stop()
	for {
		cl.mu.Lock()
		cc, err, ready := cl.conn, cl.err, cl.ready
		cl.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if cc != nil {
			return cc, nil
		}
		select {
		case <-ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-deadline.C:
			return nil, fmt.Errorf("stream: no connection to %s after %v: %w",
				cl.addr, cl.opts.ConnectTimeout, ErrConnLost)
		}
	}
}

// Close tears the client down; in-flight calls fail and no further
// redials are attempted.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	if cl.err == nil {
		cl.err = errClientClosed
	}
	cc := cl.conn
	select {
	case <-cl.ready:
	default:
		close(cl.ready) // wake callers parked on a redial
	}
	cl.mu.Unlock()
	if cc != nil {
		return cc.c.Close()
	}
	return nil
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
func (cl *Client) EstimateBytes(ctx context.Context, body []byte) ([]byte, error) {
	b, err := cl.estimateOnce(ctx, body)
	if err != nil && cl.opts.Reconnect && errors.Is(err, ErrConnLost) && ctx.Err() == nil {
		// Estimates are idempotent reads: one retry on the redialed
		// connection before the loss surfaces to the caller.
		b, err = cl.estimateOnce(ctx, body)
	}
	return b, err
}

func (cl *Client) estimateOnce(ctx context.Context, body []byte) ([]byte, error) {
	cc, err := cl.current(ctx)
	if err != nil {
		return nil, err
	}
	return cc.estimate(ctx, cl.seq.Add(1), body)
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

// clientConn is one TCP connection generation: the read loop and the
// writer, the in-flight waiter table, and the per-connection failure
// state.
type clientConn struct {
	cl  *Client
	gen uint64
	c   net.Conn
	w   *FrameWriter

	mu      sync.Mutex
	waiters map[uint64]chan result
	err     error // first loop failure; wrapped with ErrConnLost
}

// readLoop demultiplexes response frames to their waiters. On any read
// failure every in-flight call on this connection fails with the same
// error — a broken stream cannot be resynchronized, only redialed.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.c, ReadBufferSize)
	for {
		f, err := ReadFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("stream: connection closed by server: %w", io.EOF)
			}
			cc.fail(err)
			return
		}
		if f.Type != FrameResponse && f.Type != FrameError {
			cc.fail(fmt.Errorf("stream: unexpected frame type %d from server", f.Type))
			return
		}
		cc.mu.Lock()
		ch, ok := cc.waiters[f.Seq]
		delete(cc.waiters, f.Seq)
		cc.mu.Unlock()
		if ok {
			// Buffered (capacity 1): a waiter that gave up on its context
			// deleted itself, and a late send must not block the reader.
			ch <- result{body: f.Body, isErr: f.Type == FrameError}
		}
	}
}

// fail marks the connection dead: in-flight waiters' channels close
// (their calls fail fast with ErrConnLost) and the parent client is
// told so it can turn the error sticky or start redialing.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	first := cc.err == nil
	if first {
		cc.err = fmt.Errorf("%w: %w", ErrConnLost, err)
	}
	cause := cc.err
	waiters := cc.waiters
	cc.waiters = make(map[uint64]chan result)
	cc.mu.Unlock()
	if first {
		cc.w.Close()
		_ = cc.c.Close()
		cc.cl.lost(cc.gen, cause)
	}
	for _, ch := range waiters {
		close(ch)
	}
}

// connErr returns the connection's failure, or a generic loss error
// when a waiter observed the closed channel before err was recorded.
func (cc *clientConn) connErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return cc.err
	}
	return ErrConnLost
}

// estimate runs one request on this connection generation.
func (cc *clientConn) estimate(ctx context.Context, seq uint64, body []byte) ([]byte, error) {
	ch := resultChan()
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return nil, err
	}
	cc.waiters[seq] = ch
	cc.mu.Unlock()

	if err := cc.w.Send(ctx, &Frame{Type: FrameEstimate, Seq: seq, Body: body}); err != nil {
		cc.mu.Lock()
		delete(cc.waiters, seq)
		cc.mu.Unlock()
		if errors.Is(err, ErrConnLost) {
			return nil, cc.connErr() // the connection's first failure, not the writer's echo of it
		}
		return nil, err // ctx done while the queue was full, or body over the frame limit
	}

	select {
	case r, ok := <-ch:
		if !ok {
			return nil, cc.connErr()
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
		cc.mu.Lock()
		delete(cc.waiters, seq)
		cc.mu.Unlock()
		return nil, ctx.Err()
	}
}
