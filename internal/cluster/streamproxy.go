package cluster

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/stream"
)

// streamWriteTimeout bounds one outbound write burst on the router's
// stream surface, mirroring the replica stream server's default. It is
// what tears down a client that stopped reading.
const streamWriteTimeout = 30 * time.Second

// streamProxy is the router's streaming listener: it speaks the same
// framed protocol as a replica's stream server, but each estimate
// frame is routed by schema and forwarded over the replica pools, so
// a streaming client gets fleet routing without a protocol change.
type streamProxy struct {
	rt *Router
	ln net.Listener

	mu     sync.Mutex
	conns  map[*proxyConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// StartStream starts the router's stream listener on addr
// (host:port, empty host for all interfaces) and returns the bound
// address.
func (rt *Router) StartStream(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	sp := &streamProxy{rt: rt, ln: ln, conns: make(map[*proxyConn]struct{})}
	rt.streamSrv = sp
	sp.wg.Add(1)
	go sp.acceptLoop()
	return ln.Addr().String(), nil
}

// StreamAddr returns the stream listener's bound address, "" before
// StartStream.
func (rt *Router) StreamAddr() string {
	if rt.streamSrv == nil {
		return ""
	}
	return rt.streamSrv.ln.Addr().String()
}

func (sp *streamProxy) close() {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return
	}
	sp.closed = true
	conns := make([]*proxyConn, 0, len(sp.conns))
	for c := range sp.conns {
		conns = append(conns, c)
	}
	sp.mu.Unlock()
	sp.ln.Close()
	for _, c := range conns {
		c.shutdown()
	}
	sp.wg.Wait()
}

func (sp *streamProxy) acceptLoop() {
	defer sp.wg.Done()
	for {
		nc, err := sp.ln.Accept()
		if err != nil {
			return // listener closed
		}
		w := stream.NewFrameWriter(nc, streamWriteTimeout, &sp.rt.framesPerWrite)
		c := &proxyConn{
			sp: sp,
			c:  nc,
			br: bufio.NewReaderSize(flushBeforeRead{nc, w}, stream.ReadBufferSize),
			w:  w,
		}
		if host, _, err := net.SplitHostPort(nc.RemoteAddr().String()); err == nil {
			c.client = host
		} else {
			c.client = nc.RemoteAddr().String()
		}
		sp.mu.Lock()
		if sp.closed {
			sp.mu.Unlock()
			nc.Close()
			return
		}
		sp.conns[c] = struct{}{}
		sp.mu.Unlock()
		sp.wg.Add(2)
		go c.readLoop()
		go func() {
			defer sp.wg.Done()
			defer c.shutdown()
			_ = c.w.Run() // whatever stopped it, shutdown is the answer
		}()
	}
}

// flushBeforeRead is the reader under a proxyConn's bufio.Reader. The
// read loop queues its cache-hit answers without waking the writer;
// bufio comes here only when the loop has used every whole frame the
// last read returned, so flushing first sends the answers to that burst
// in one write — and before the loop can block, so no answer ever waits
// on a later request.
type flushBeforeRead struct {
	r io.Reader
	w *stream.FrameWriter
}

func (f flushBeforeRead) Read(p []byte) (int, error) {
	f.w.Flush()
	return f.r.Read(p)
}

// proxyConn is one accepted streaming connection: a read loop that
// answers cache hits itself and spawns one forwarding goroutine per
// miss (bounded by the router's admission counters), and a FrameWriter
// draining the answers, same shape as the replica's server side.
type proxyConn struct {
	sp     *streamProxy
	c      net.Conn
	br     *bufio.Reader
	w      *stream.FrameWriter
	once   sync.Once
	client string // admission key: the remote host
}

func (c *proxyConn) shutdown() {
	c.once.Do(func() {
		c.w.Close()
		c.c.Close()
		c.sp.mu.Lock()
		delete(c.sp.conns, c)
		c.sp.mu.Unlock()
	})
}

func (c *proxyConn) readLoop() {
	defer c.sp.wg.Done()
	defer c.shutdown()
	rt := c.sp.rt
	var f stream.Frame
	for {
		// f.Body lies in the read buffer (CRC already verified) and is
		// gone at the next iteration.
		if err := stream.ReadFrameInPlace(c.br, &f); err != nil {
			if !errors.Is(err, io.EOF) {
				rt.logger.Debug("stream proxy: connection read failed",
					"remote", c.c.RemoteAddr().String(), "error", err)
			}
			return
		}
		if f.Type != stream.FrameEstimate {
			rt.logger.Warn("stream proxy: unexpected frame type from client",
				"type", int(f.Type))
			return
		}
		// Answers from this loop are queued, not sent: flushBeforeRead
		// sends them. A queue error means the writer is gone and the
		// connection with it.
		release, ok := rt.admit(c.client)
		if !ok {
			if c.w.Queue(stream.ErrorFrame(f.Seq, errShed.msg, errShed.code)) != nil {
				return
			}
			continue
		}
		if resp, ok := rt.cached(f.Body); ok {
			err := c.w.Queue(&stream.Frame{Type: stream.FrameResponse, Seq: f.Seq, Body: resp})
			release()
			if err != nil {
				return
			}
			continue
		}
		// Forward concurrently: streams pipeline, and a frame parked on
		// a slow replica must not stall the frames behind it. The
		// goroutine outlives this iteration, so it gets its own copy.
		seq, body := f.Seq, append([]byte(nil), f.Body...)
		c.sp.wg.Add(1)
		go func() {
			defer c.sp.wg.Done()
			defer release()
			c.forward(seq, body)
		}()
	}
}

// forward answers one cache miss through the replicas.
func (c *proxyConn) forward(seq uint64, body []byte) {
	ctx := context.Background() // answered or shed by the router's own deadlines, not the client's
	resp, rerr := c.sp.rt.forward(ctx, body)
	answer := &stream.Frame{Type: stream.FrameResponse, Seq: seq, Body: resp}
	if rerr != nil {
		answer = stream.ErrorFrame(seq, rerr.msg, rerr.code)
	}
	if err := c.w.Send(ctx, answer); err != nil && !errors.Is(err, stream.ErrConnLost) {
		_ = c.w.Send(ctx, stream.ErrorFrame(seq, "frame response: "+err.Error(), "internal"))
	}
}
