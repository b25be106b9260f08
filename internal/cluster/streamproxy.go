package cluster

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/stream"
)

// The router's stream surface is the replica's stream.Listener — same
// accept loop, connection lifecycle, idle reap and write timeout — with
// a handler that routes each estimate frame by schema and forwards it
// over the replica pools, so a streaming client gets fleet routing
// without a protocol change.

// StartStream starts the router's stream listener on addr
// (host:port, empty host for all interfaces) and returns the bound
// address.
func (rt *Router) StartStream(addr string) (string, error) {
	return rt.startStream(addr, stream.Options{})
}

// startStream is StartStream with the listener's timeouts open to the
// tests; the router itself runs the listener's defaults.
func (rt *Router) startStream(addr string, opts stream.Options) (string, error) {
	opts.Logger = rt.logger
	l, err := stream.Listen(addr, opts, &rt.framesPerWrite, rt.handleFrame)
	if err != nil {
		return "", err
	}
	rt.streamSrv = l
	return l.Addr(), nil
}

// StreamAddr returns the stream listener's bound address, "" before
// StartStream.
func (rt *Router) StreamAddr() string {
	if rt.streamSrv == nil {
		return ""
	}
	return rt.streamSrv.Addr()
}

// handleFrame answers one estimate frame on the listener's read loop:
// admission first, then the response cache, and a miss sent on to its
// replica's stream connection from here, to be answered on that
// connection's read loop (see miss). Answers from here are queued, not
// sent — the listener sends them before the loop next blocks — and a
// queue error needs no handling: it means the writer is gone and the
// connection with it.
func (rt *Router) handleFrame(c *stream.Conn, f *stream.Frame) {
	ctr, ok := rt.admit(c.RemoteHost())
	if !ok {
		_ = c.Queue(stream.ErrorFrame(f.Seq, errShed.Message, errShed.Code))
		return
	}
	if resp, ok := rt.cached(f.Body); ok {
		_ = c.Queue(&stream.Frame{Type: stream.FrameResponse, Seq: f.Seq, Body: resp})
		rt.release(ctr)
		return
	}
	// The miss outlives this call, so it gets its own copy of the body.
	m := &miss{rt: rt, c: c, seq: f.Seq, body: bytes.Clone(f.Body), ctr: ctr}
	m.send()
}

// miss is one frame the router's cache did not answer, forwarded
// without a goroutine of its own: sent on its replica's stream
// connection from the listener's read loop, it is answered by Complete
// on that connection's read loop — filed in the cache, handed to the
// client, admission released — or by timeout once RequestTimeout has
// passed. What could block a read loop goes to a goroutine of the
// listener's instead: the whole request, over forward's ladder (HTTP,
// mark down, successor), when the replica has no live stream connection
// or loses it; the answer alone when the client's writer is at its
// bound.
type miss struct {
	rt   *Router
	c    *stream.Conn
	seq  uint64 // the client's
	body []byte
	ctr  *atomic.Int64 // admission, released once the client is answered

	schema string
	rp     *replica
	spill  bool
	tok    string       // rp's token before it was asked: the one the answer is filed under
	answer stream.Frame // for the client

	// mu is held from before the request is filed on cl until its timer
	// is armed, so Complete and timeout find the three set.
	mu    sync.Mutex
	cl    *stream.Client
	rseq  uint64 // the request's sequence ID on cl
	timer *time.Timer
}

// send picks the replica and its token as forward does, and starts the
// request on one of the replica's stream connections.
func (m *miss) send() {
	m.schema = serve.PeekSchema(m.body)
	rp, spill := m.rt.pick(m.schema, nil)
	var cl *stream.Client
	if rp != nil {
		cl = rp.streamConn()
	}
	if cl == nil {
		m.fallback() // forward refuses when there is no replica, and asks over HTTP when there is no stream
		return
	}
	m.rp, m.spill = rp, spill
	_, m.tok = rp.state()
	rp.inflight.Add(1)
	m.mu.Lock()
	seq, err := cl.Start(m.body, m)
	if err == nil {
		m.cl, m.rseq = cl, seq
		m.timer = time.AfterFunc(m.rt.opts.RequestTimeout, m.timeout)
	}
	m.mu.Unlock()
	if err != nil {
		rp.inflight.Add(-1)
		m.fallback()
	}
}

// Complete takes the replica's answer on its connection's read loop.
func (m *miss) Complete(resp []byte, err error) {
	m.mu.Lock()
	m.timer.Stop()
	m.mu.Unlock()
	m.rp.inflight.Add(-1)
	if err == nil {
		if m.rt.cache != nil {
			// The answer shares its allocation with the rest of its read
			// burst; the cache keeps only the answer.
			m.rt.cache.Put(string(m.body), m.schema, m.tok, bytes.Clone(resp), m.rp.reports)
		}
		m.answer = stream.Frame{Type: stream.FrameResponse, Seq: m.seq, Body: resp}
	} else if se, ok := err.(*serve.Error); ok {
		m.answer = *stream.ErrorFrame(m.seq, se.Message, se.Code)
	} else {
		// The connection is lost, not necessarily the replica, or its
		// answer was unreadable: forward's ladder takes it from here.
		m.fallback()
		return
	}
	m.reply()
}

// timeout answers the request once RequestTimeout has passed, unless
// its answer came first; a late answer is dropped unread.
func (m *miss) timeout() {
	m.mu.Lock()
	cl, seq := m.cl, m.rseq
	m.mu.Unlock()
	if !cl.Cancel(seq) {
		return
	}
	m.rp.inflight.Add(-1)
	m.answer = *stream.ErrorFrame(m.seq, context.DeadlineExceeded.Error(), serve.CodeTimeout)
	m.reply()
}

// reply counts the request as forward's ladder does, hands the answer
// to the client and releases admission — the answer on a goroutine
// while the client's writer is at its bound.
func (m *miss) reply() {
	m.rt.counted(m.rp, m.spill)
	if errors.Is(m.c.TrySend(&m.answer), stream.ErrQueueFull) && m.c.Go(m.replyWaiting) {
		return
	}
	m.rt.release(m.ctr)
}

// replyWaiting sends the answer once the client's writer has room.
func (m *miss) replyWaiting() {
	_ = m.c.Send(context.Background(), &m.answer)
	m.rt.release(m.ctr)
}

// fallback forwards the request over forward's ladder on a goroutine
// of the listener's, or drops it once the listener is closing.
func (m *miss) fallback() {
	if !m.c.Go(m.forward) {
		m.rt.release(m.ctr)
	}
}

// forward answers the request through the replicas as the HTTP surface
// does.
func (m *miss) forward() {
	defer m.rt.release(m.ctr)
	ctx := context.Background() // answered or shed by the router's own deadlines, not the client's
	resp, rerr := m.rt.forward(ctx, m.body)
	answer := &stream.Frame{Type: stream.FrameResponse, Seq: m.seq, Body: resp}
	if rerr != nil {
		answer = stream.ErrorFrame(m.seq, rerr.Message, rerr.Code)
	}
	if err := m.c.Send(ctx, answer); err != nil && !errors.Is(err, stream.ErrConnLost) {
		_ = m.c.Send(ctx, stream.ErrorFrame(m.seq, "frame response: "+err.Error(), serve.CodeInternal))
	}
}
