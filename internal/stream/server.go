package stream

import (
	"context"
	"errors"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Options configures a streaming Server. A bare Listener reads only
// IdleTimeout and Logger.
type Options struct {
	// Service handles the coalesced dispatches. Required by Start.
	Service *serve.Service
	// IdleTimeout reaps connections with no inbound frame (default 5m);
	// the reap lands between 1× and 1.5× the bound (the deadline is
	// re-armed lazily, not per frame). Streams are long-lived by
	// design, so this is a liveness bound, not a request deadline —
	// per-request deadlines ride in each frame's timeout_ms.
	IdleTimeout time.Duration
	// Logger receives connection-level failures. Nil selects
	// slog.Default().
	Logger *slog.Logger
}

// defaultWriteTimeout bounds one write burst in either direction: the
// listener's answers and the client's requests. A peer that stops
// reading stalls the writer goroutine until it fires, then fails the
// connection, which releases whoever was blocked on the full queue.
const defaultWriteTimeout = 30 * time.Second

func (o Options) withDefaults() Options {
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 5 * time.Minute
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
	// ReplayHits counts the estimate frames answered from the service's
	// response cache, before anything of them was decoded; ReplayMisses
	// the ones that went on to be decoded. Frames of this listener only —
	// POST /estimate asks the same cache and counts its own. Both stay 0
	// with the cache off.
	ReplayHits   uint64 `json:"replay_hits"`
	ReplayMisses uint64 `json:"replay_misses"`
	// Dispatches counts coalesced micro-batches sent to the service;
	// (Requests−ReplayHits)/Dispatches is the realized average batch
	// fill. Holds reads 0: nothing holds a group since the MaxWait timer
	// and its extensions went; the field stays for the benchmark that
	// reads it.
	Dispatches uint64 `json:"dispatches"`
	Holds      uint64 `json:"holds"`
}

// Server is a Listener whose handler answers a request its service has
// answered before — on this transport or over HTTP — from the service's
// response cache, and coalesces the rest — the in-flight requests of all
// its connections — into batched dispatches.
type Server struct {
	*Listener
	opts    Options
	batcher *batcher

	requests     atomic.Uint64
	responses    atomic.Uint64
	sendErrors   atomic.Uint64
	dispatches   atomic.Uint64
	replayHits   atomic.Uint64
	replayMisses atomic.Uint64

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
	s := &Server{opts: opts.withDefaults()}
	s.batcher = &batcher{srv: s, slots: make(chan struct{}, opts.Service.Workers()), groups: make(map[groupKey]*group)}
	l, err := Listen(addr, s.opts, &s.framesPerWrite, s.handleEstimate)
	if err != nil {
		return nil, err
	}
	s.Listener = l // the handler never reads it, so it may already be running
	return s, nil
}

// Stats snapshots the listener's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:     s.Accepted(),
		Open:         s.Open(),
		Requests:     s.requests.Load(),
		Responses:    s.responses.Load(),
		Errors:       s.sendErrors.Load(),
		ReplayHits:   s.replayHits.Load(),
		ReplayMisses: s.replayMisses.Load(),
		Dispatches:   s.dispatches.Load(),
	}
}

// Collector returns an obs collector emitting the stream series from
// Stats — register it on the service's Obs() registry to surface them
// on GET /metrics.
func (s *Server) Collector() obs.Collector {
	return func(e *obs.Expo) {
		st := s.Stats()
		e.Gauge("resserve_stream_connections", "Open streaming connections.", "", float64(st.Open))
		e.Counter("resserve_stream_connections_total", "Streaming connections accepted.", "",
			float64(st.Accepted))
		e.Counter("resserve_stream_requests_total", "Estimate frames received.", "", float64(st.Requests))
		e.Counter("resserve_stream_responses_total", "Response frames sent.", "", float64(st.Responses))
		e.Counter("resserve_stream_errors_total", "Error frames sent.", "", float64(st.Errors))
		e.Counter("resserve_stream_dispatches_total", "Coalesced micro-batches dispatched.", "",
			float64(st.Dispatches))
		e.Counter("resserve_stream_replay_hits_total",
			"Estimate frames answered from the response cache, undecoded.", "", float64(st.ReplayHits))
		e.Counter("resserve_stream_replay_misses_total",
			"Estimate frames the response cache did not answer (stale entries included).", "",
			float64(st.ReplayMisses))
		fill := s.batchFill.Snapshot()
		e.IntHistogram("resserve_stream_batch_fill", "Plans per coalesced dispatch.", "", &fill)
		perWrite := s.framesPerWrite.Snapshot()
		e.IntHistogram("resserve_stream_frames_per_write", "Answer frames per socket write.", "", &perWrite)
		wait := s.coalesceWait.Snapshot()
		e.Summary("resserve_stream_coalesce_wait_seconds",
			"Time a dispatch's oldest request waited in the micro-batcher.", "", &wait)
	}
}

// handleEstimate answers one request frame from the response cache if
// it can — before anything is parsed, queued like the router's hits so
// the answers to one read leave in one write — and otherwise decodes it
// and hands it to the batcher. Per-request failures (bad JSON, unknown
// resource, bad plan) answer only this sequence ID — they never poison
// the batch the request would have joined. Nothing decoded from f.Body
// aliases it (strings are copied out, the plan is rebuilt, the cache
// key is a copy), so the read buffer it lies in is free again on
// return.
func (s *Server) handleEstimate(c *Conn, f *Frame) {
	start := time.Now()
	s.requests.Add(1)
	svc := s.opts.Service
	caching := svc.Caching()
	if caching {
		if body, ok := svc.Replay(f.Body); ok {
			s.replayHits.Add(1)
			s.responses.Add(1)
			_ = c.Queue(&Frame{Type: FrameResponse, Seq: f.Seq, Body: body}) // fails only on a dead connection
			svc.RecordStreamStage(obs.StageCacheProbe, time.Since(start))
			return
		}
		s.replayMisses.Add(1)
	}
	req, err := serve.DecodeRequest(f.Body, serve.EstimateKeys)
	if err != nil {
		s.sendError(c, f.Seq, serve.BadBody(err))
		return
	}
	kinds, p, e := serve.ResolveEstimate(&req)
	if e != nil {
		s.sendError(c, f.Seq, e)
		return
	}
	var key string
	if caching {
		key = string(f.Body)
	}
	svc.RecordStreamStage(obs.StageDecode, time.Since(start))
	s.batcher.enqueue(pending{conn: c, seq: f.Seq, plan: p, key: key}, kinds, req.TimeoutMS, req.Schema)
}

// sendResponse encodes one plan's Response — byte-identical to the
// /estimate body — files what a repeat of m's request reads under the
// request's bytes, and queues the answer for the writer. An answer no
// frame can carry is never filed — a replay of it could not be sent —
// by the cache's own bound on an entry, which is below the frame limit.
func (s *Server) sendResponse(m *pending, schema string, resp *serve.Response) {
	start := time.Now()
	body, err := serve.MarshalWire(resp)
	if err != nil {
		s.sendError(m.conn, m.seq, serve.EncodeFailed(err))
		return
	}
	// Counted and filed before the frame can reach the peer, so a client
	// holding its answer never reads a count that lacks it, and is
	// answered from the cache if it asks again.
	s.responses.Add(1)
	s.opts.Service.FileReplay(m.key, schema, resp, body) // nothing, with the cache off
	err = m.conn.Send(context.Background(), &Frame{Type: FrameResponse, Seq: m.seq, Body: body})
	if err != nil && !errors.Is(err, ErrConnLost) { // body over the frame limit
		s.responses.Add(^uint64(0))
		s.sendError(m.conn, m.seq, &serve.Error{Message: "frame response: " + err.Error(), Code: serve.CodeInternal})
		return
	}
	s.opts.Service.RecordStreamStage(obs.StageEncode, time.Since(start))
}

// sendError answers one sequence ID with e. Like sendResponse it
// blocks while the writer's queue is full; the queue bound plus
// defaultWriteTimeout limit how long a non-reading peer can stall a
// dispatch goroutine.
func (s *Server) sendError(c *Conn, seq uint64, e *serve.Error) {
	s.sendErrors.Add(1)
	_ = c.Send(context.Background(), ErrorFrame(seq, e.Message, e.Code)) // fails only on a dead connection
}
