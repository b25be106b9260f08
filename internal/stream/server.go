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
	"repro/internal/serve"
)

// Options configures the streaming listener.
type Options struct {
	// Service handles the coalesced dispatches. Required.
	Service *serve.Service
	// MaxBatch bounds a coalesced dispatch's plan count. 0 selects 64 —
	// past that the batch path's per-plan amortization has flattened
	// and a bigger batch only adds queueing for its first member.
	MaxBatch int
	// MaxWait bounds how long the first request of a group waits for
	// company before dispatching alone. 0 selects 250µs. This is the
	// transport's latency floor under light load and its throughput
	// lever under heavy load.
	MaxWait time.Duration
	// MaxDispatches caps how many coalesced dispatches may be inside
	// the service at once. 0 selects the service's worker count. While
	// every slot is busy, timer-expired groups stay in the batcher and
	// keep absorbing arrivals (up to MaxBatch) instead of queueing tiny
	// batches behind a saturated pool.
	MaxDispatches int
	// IdleTimeout reaps connections with no inbound frame (default 5m);
	// the reap lands between 1× and 1.5× the bound (the deadline is
	// re-armed lazily, not per frame). Streams are long-lived by
	// design, so this is a liveness bound, not a request deadline —
	// per-request deadlines ride in each frame's timeout_ms.
	IdleTimeout time.Duration
	// WriteTimeout bounds one outbound write burst (default 30s). A
	// peer that stops reading stalls its writer goroutine until this
	// fires, then the connection is torn down.
	WriteTimeout time.Duration
	// Logger receives connection-level failures. Nil selects
	// slog.Default().
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 250 * time.Microsecond
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Stats is a point-in-time snapshot of the stream listener's counters.
type Stats struct {
	// Accepted counts connections ever accepted; Open is the current
	// count.
	Accepted uint64 `json:"accepted"`
	Open     int64  `json:"open"`
	// Requests counts estimate frames read; Responses and Errors count
	// the answer frames written.
	Requests  uint64 `json:"requests"`
	Responses uint64 `json:"responses"`
	Errors    uint64 `json:"errors"`
	// Dispatches counts coalesced micro-batches sent through the pool;
	// Requests/Dispatches is the realized average batch fill. Holds
	// counts MaxWait extensions granted to under-filled groups under
	// backlog (the adaptive coalescing hold).
	Dispatches uint64 `json:"dispatches"`
	Holds      uint64 `json:"holds"`
}

// Server accepts streaming connections and coalesces their in-flight
// requests across connections into batched dispatches.
type Server struct {
	opts    Options
	ln      net.Listener
	batcher *batcher

	mu     sync.Mutex
	conns  map[*serverConn]struct{}
	closed bool
	wg     sync.WaitGroup

	accepted   atomic.Uint64
	open       atomic.Int64
	requests   atomic.Uint64
	responses  atomic.Uint64
	sendErrors atomic.Uint64
	dispatches atomic.Uint64
	holds      atomic.Uint64

	batchFill      obs.IntHistogram
	framesPerWrite obs.IntHistogram
	coalesceWait   obs.Histogram
}

// Start binds addr and serves streaming connections in the background
// until Close. It returns once the listener is bound, so startup
// failures surface immediately — same contract as obs.StartDebugServer.
func Start(addr string, opts Options) (*Server, error) {
	if opts.Service == nil {
		return nil, errors.New("stream: Options.Service is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{opts: opts.withDefaults(), ln: ln, conns: make(map[*serverConn]struct{})}
	maxDispatches := s.opts.MaxDispatches
	if maxDispatches <= 0 {
		if maxDispatches = opts.Service.Workers(); maxDispatches <= 0 {
			maxDispatches = 1
		}
	}
	s.batcher = newBatcher(s, maxDispatches)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats snapshots the listener's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:   s.accepted.Load(),
		Open:       s.open.Load(),
		Requests:   s.requests.Load(),
		Responses:  s.responses.Load(),
		Errors:     s.sendErrors.Load(),
		Dispatches: s.dispatches.Load(),
		Holds:      s.holds.Load(),
	}
}

// Collector returns an obs collector emitting the stream series —
// register it on the service's Obs() registry to surface them on
// GET /metrics.
func (s *Server) Collector() obs.Collector {
	return func(e *obs.Expo) {
		e.Gauge("resserve_stream_connections", "Open streaming connections.", "",
			float64(s.open.Load()))
		e.Counter("resserve_stream_connections_total", "Streaming connections accepted.", "",
			float64(s.accepted.Load()))
		e.Counter("resserve_stream_requests_total", "Estimate frames received.", "",
			float64(s.requests.Load()))
		e.Counter("resserve_stream_responses_total", "Response frames sent.", "",
			float64(s.responses.Load()))
		e.Counter("resserve_stream_errors_total", "Error frames sent.", "",
			float64(s.sendErrors.Load()))
		e.Counter("resserve_stream_dispatches_total", "Coalesced micro-batches dispatched.", "",
			float64(s.dispatches.Load()))
		fill := s.batchFill.Snapshot()
		e.IntHistogram("resserve_stream_batch_fill", "Plans per coalesced dispatch.", "", &fill)
		perWrite := s.framesPerWrite.Snapshot()
		e.IntHistogram("resserve_stream_frames_per_write", "Answer frames per socket write.", "", &perWrite)
		wait := s.coalesceWait.Snapshot()
		e.Summary("resserve_stream_coalesce_wait_seconds",
			"Time a dispatch's oldest request waited in the micro-batcher.", "", &wait)
	}
}

// Close stops accepting, tears down every open connection, and waits
// for the connection goroutines to exit. In-flight dispatches already
// in the pool still complete; their responses go nowhere.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.shutdown()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &serverConn{
			srv: s,
			c:   nc,
			br:  bufio.NewReaderSize(nc, ReadBufferSize),
			w:   NewFrameWriter(nc, s.opts.WriteTimeout, &s.framesPerWrite),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.open.Add(1)
		s.wg.Add(2)
		go c.readLoop()
		go func() {
			defer s.wg.Done()
			defer c.shutdown()
			_ = c.w.Run() // whatever stopped it, shutdown is the answer
		}()
	}
}

// ReadBufferSize is the read buffer of every stream endpoint — this
// server, the client, the router's listener: forty of the benchmark's
// 1.6 KB requests per read, where bufio's 4 KB default holds two and a
// half.
const ReadBufferSize = 64 << 10

// serverConn is one accepted streaming connection: a read loop feeding
// the batcher and a FrameWriter draining the answers, so a slow write
// never stops the inbound coalescing flow.
type serverConn struct {
	srv  *Server
	c    net.Conn
	br   *bufio.Reader
	w    *FrameWriter
	once sync.Once
}

// shutdown closes the connection once; both loops exit on it.
func (c *serverConn) shutdown() {
	c.once.Do(func() {
		c.w.Close()
		c.c.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		c.srv.open.Add(-1)
	})
}

func (c *serverConn) readLoop() {
	defer c.srv.wg.Done()
	defer c.shutdown()
	// The idle deadline is re-armed lazily: resetting it on every frame
	// would cost a runtime timer update per request, and the reap only
	// needs IdleTimeout-ish precision. Arming 1.5× out and re-arming
	// once the previous arm is half-stale guarantees a connection is
	// never reaped under IdleTimeout of idleness and always reaped by
	// 1.5× it.
	var armed time.Time
	for {
		if now := time.Now(); now.Sub(armed) > c.srv.opts.IdleTimeout/2 {
			armed = now
			_ = c.c.SetReadDeadline(now.Add(c.srv.opts.IdleTimeout * 3 / 2))
		}
		f, err := ReadFrame(c.br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !routineDisconnect(err) {
				c.srv.opts.Logger.Warn("stream: connection read failed",
					slog.String("remote", c.c.RemoteAddr().String()), slog.String("error", err.Error()))
			}
			return
		}
		if f.Type != FrameEstimate {
			// A peer sending server-side frame types has lost protocol
			// state; nothing it sends after can be trusted.
			c.srv.opts.Logger.Warn("stream: unexpected frame type from client",
				slog.Int("type", int(f.Type)))
			return
		}
		c.srv.requests.Add(1)
		c.handleEstimate(f)
	}
}

// handleEstimate decodes one request frame and hands it to the
// batcher. Per-request failures (bad JSON, unknown resource, bad plan)
// answer only this sequence ID — they never poison the batch the
// request would have joined.
func (c *serverConn) handleEstimate(f *Frame) {
	start := time.Now()
	var req serve.Envelope
	if err := decodeEstimate(f.Body, &req); err != nil {
		c.sendError(f.Seq, "bad request body: "+err.Error(), "bad_request")
		return
	}
	kinds, p, code, err := serve.ResolveEstimate(&req)
	if err != nil {
		c.sendError(f.Seq, err.Error(), code)
		return
	}
	c.srv.opts.Service.RecordStreamStage(obs.StageDecode, time.Since(start))
	c.srv.batcher.enqueue(c, f.Seq, kinds, p, req.TimeoutMS, req.Schema)
}

// sendResponse encodes one plan's Response — byte-identical to the
// /estimate body — and queues it for the writer.
func (c *serverConn) sendResponse(seq uint64, resp *serve.Response) {
	start := time.Now()
	body, err := serve.MarshalWire(resp)
	if err != nil {
		c.sendError(seq, "encode response: "+err.Error(), "internal")
		return
	}
	// Counted before the frame can reach the peer, so a client holding
	// its answer never reads a count that lacks it.
	c.srv.responses.Add(1)
	err = c.w.Send(context.Background(), &Frame{Type: FrameResponse, Seq: seq, Body: body})
	if err != nil && !errors.Is(err, ErrConnLost) { // body over the frame limit
		c.srv.responses.Add(^uint64(0))
		c.sendError(seq, "frame response: "+err.Error(), "internal")
		return
	}
	c.srv.opts.Service.RecordStreamStage(obs.StageEncode, time.Since(start))
}

// sendError answers one sequence ID with the structured error
// envelope. Like sendResponse it blocks while the writer's queue is
// full; the queue bound plus WriteTimeout limit how long a non-reading
// peer can stall a dispatch goroutine.
func (c *serverConn) sendError(seq uint64, msg, code string) {
	c.srv.sendErrors.Add(1)
	_ = c.w.Send(context.Background(), ErrorFrame(seq, msg, code)) // fails only on a dead connection
}

// routineDisconnect reports read failures that are lifecycle, not
// protocol: our own shutdown closing the socket, or the idle reaper's
// deadline firing. Neither is log-worthy.
func routineDisconnect(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}
