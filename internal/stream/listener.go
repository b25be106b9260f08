package stream

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Handler answers one estimate frame read from c. The frame is read in
// place: f.Body lies in the connection's read buffer and is gone once
// the handler returns, so a handler that keeps it copies it. Answers it
// queues (Conn.Queue) leave together before the read loop next blocks;
// answers produced later, on another goroutine, go through Conn.Send,
// or Conn.TrySend where that goroutine must not wait for room.
type Handler func(c *Conn, f *Frame)

// Listener is the accepting side of the stream protocol: the listen
// socket, the accept loop, the set of open connections and, per
// connection, a read loop calling the handler and a FrameWriter
// draining the answers — so a slow write never stops the inbound flow.
// A replica's Server and the router's stream surface are both one of
// these with their own handler.
type Listener struct {
	ln       net.Listener
	opts     Options // IdleTimeout, Logger
	perWrite *obs.IntHistogram
	handle   Handler

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	accepted atomic.Uint64
	open     atomic.Int64
}

// Listen binds addr and serves connections in the background until
// Close, handing every estimate frame to handle. It returns once the
// listener is bound, so startup failures surface immediately — same
// contract as obs.StartDebugServer. Of opts it reads IdleTimeout and
// Logger; perWrite, when non-nil, observes the frames each socket write
// carried.
func Listen(addr string, opts Options, perWrite *obs.IntHistogram, handle Handler) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{ln: ln, opts: opts.withDefaults(), perWrite: perWrite, handle: handle,
		conns: make(map[*Conn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound listen address (useful with ":0").
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Accepted counts the connections ever accepted.
func (l *Listener) Accepted() uint64 { return l.accepted.Load() }

// Open counts the connections open now.
func (l *Listener) Open() int64 { return l.open.Load() }

// Queued returns, for every open connection, the answer bytes queued
// for it and not yet handed to the socket.
func (l *Listener) Queued() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int, 0, len(l.conns))
	for c := range l.conns {
		out = append(out, c.w.Buffered())
	}
	return out
}

// Close stops accepting, tears down every open connection, and waits
// for the connection goroutines — and whatever the handler started with
// Conn.Go — to exit. Work a handler passed elsewhere still completes;
// its answers go nowhere.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	conns := make([]*Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	err := l.ln.Close()
	for _, c := range conns {
		c.shutdown()
	}
	l.wg.Wait()
	return err
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &Conn{l: l, c: nc, w: NewFrameWriter(nc, defaultWriteTimeout, l.perWrite)}
		c.host = nc.RemoteAddr().String()
		if host, _, err := net.SplitHostPort(c.host); err == nil {
			c.host = host
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			nc.Close()
			return
		}
		l.conns[c] = struct{}{}
		l.mu.Unlock()
		l.accepted.Add(1)
		l.open.Add(1)
		l.wg.Add(2)
		go c.readLoop()
		go func() {
			defer l.wg.Done()
			defer c.shutdown()
			_ = c.w.Run() // whatever stopped it, shutdown is the answer
		}()
	}
}

// ReadBufferSize is the read buffer of every stream endpoint — a
// listener's connections and the client's: forty of the benchmark's
// 1.6 KB requests per read, where bufio's 4 KB default holds two and a
// half.
const ReadBufferSize = 64 << 10

// Conn is one accepted connection, as its handler sees it.
type Conn struct {
	l    *Listener
	c    net.Conn
	w    *FrameWriter
	host string
	once sync.Once
}

// RemoteHost returns the peer's address without the port.
func (c *Conn) RemoteHost() string { return c.host }

// Send queues an answer and wakes the writer; see FrameWriter.Send.
func (c *Conn) Send(ctx context.Context, f *Frame) error { return c.w.Send(ctx, f) }

// Queue queues an answer from inside the handler without waking the
// writer; it is sent before the read loop next blocks. See
// FrameWriter.Queue. An error means the connection is already lost.
func (c *Conn) Queue(f *Frame) error { return c.w.Queue(f) }

// TrySend queues an answer and wakes the writer, or fails at once with
// ErrQueueFull; see FrameWriter.TrySend.
func (c *Conn) TrySend(f *Frame) error { return c.w.TrySend(f) }

// Go runs fn on a goroutine of its own that the listener's Close waits
// for, and reports whether it did: once Close has begun, it does not.
func (c *Conn) Go(fn func()) bool {
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	if c.l.closed {
		return false
	}
	c.l.wg.Add(1)
	go func() {
		defer c.l.wg.Done()
		fn()
	}()
	return true
}

// shutdown closes the connection once; both loops exit on it.
func (c *Conn) shutdown() {
	c.once.Do(func() {
		c.w.Close()
		c.c.Close()
		c.l.mu.Lock()
		delete(c.l.conns, c)
		c.l.mu.Unlock()
		c.l.open.Add(-1)
	})
}

// flushBeforeRead is the reader under a connection's bufio.Reader. The
// handler may queue answers without waking the writer; bufio comes here
// only when the read loop has used every whole frame the last read
// returned, so flushing first sends the answers to that burst in one
// write — and before the loop can block, so no answer ever waits on a
// later request.
//
// It also keeps the idle deadline, re-armed lazily: once per socket
// read rather than per frame, and only when the previous arm is
// half-stale, since resetting it costs a runtime timer update and the
// reap only needs IdleTimeout-ish precision. Arming 1.5× out guarantees
// a connection is never reaped under IdleTimeout of idleness and always
// reaped by 1.5× it.
type flushBeforeRead struct {
	c     net.Conn
	w     *FrameWriter
	idle  time.Duration
	armed time.Time
}

func (f *flushBeforeRead) Read(p []byte) (int, error) {
	f.w.Flush()
	if now := time.Now(); now.Sub(f.armed) > f.idle/2 {
		f.armed = now
		_ = f.c.SetReadDeadline(now.Add(f.idle * 3 / 2))
	}
	return f.c.Read(p)
}

func (c *Conn) readLoop() {
	defer c.l.wg.Done()
	defer c.shutdown()
	logger := c.l.opts.Logger
	br := bufio.NewReaderSize(&flushBeforeRead{c: c.c, w: c.w, idle: c.l.opts.IdleTimeout}, ReadBufferSize)
	var f Frame
	for {
		if err := ReadFrameInPlace(br, &f); err != nil {
			if !errors.Is(err, io.EOF) && !routineDisconnect(err) {
				logger.Warn("stream: connection read failed",
					slog.String("remote", c.c.RemoteAddr().String()), slog.String("error", err.Error()))
			}
			return
		}
		if f.Type != FrameEstimate {
			// A peer sending server-side frame types has lost protocol
			// state; nothing it sends after can be trusted.
			logger.Warn("stream: unexpected frame type from client", slog.Int("type", int(f.Type)))
			return
		}
		c.l.handle(c, &f)
		if afterHandle != nil {
			afterHandle(&f)
		}
	}
}

// afterHandle, set only by tests, sees each frame once its handler has
// returned — where the read buffer under it is the listener's again.
var afterHandle func(*Frame)

// routineDisconnect reports read failures that are lifecycle, not
// protocol: our own shutdown closing the socket, or the idle reaper's
// deadline firing. Neither is log-worthy.
func routineDisconnect(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}
