package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/respcache"
	"repro/internal/serve"
	"repro/internal/stream"
)

// Options configures a Router. Zero values select defaults.
type Options struct {
	// Replicas are the resserve HTTP base addresses ("host:port" or a
	// full URL). The address string is also the replica's ring key
	// and metrics label. Required.
	Replicas []string
	// PoolSize is the number of pooled stream connections per replica
	// (default 2). Streams pipeline, so a small pool carries high
	// concurrency while giving the replica's micro-batcher multiple
	// independent arrival streams to coalesce.
	PoolSize int
	// PollInterval is the health/version poll period (default 1s).
	PollInterval time.Duration
	// DialTimeout bounds the /healthz requests of one poll round
	// (default 5s). Stream pool dials keep stream.Dial's fixed 5s.
	DialTimeout time.Duration
	// RequestTimeout bounds one forwarded estimate (default 30s; a
	// request body's timeout_ms still applies server-side).
	RequestTimeout time.Duration
	// MaxInflight bounds requests in flight through the router; past
	// it the router sheds with 503 + Retry-After (default 1024).
	MaxInflight int
	// MaxPerClient bounds one client's in-flight requests (keyed by
	// X-Client-Id, falling back to the remote host; default 256).
	MaxPerClient int
	// MaxReplicaInflight is the per-replica overload bound: a primary
	// past it spills its schemas to the next same-version replica on
	// the ring (default 512).
	MaxReplicaInflight int
	// CacheEntries bounds the router's response cache (default
	// respcache.Entries; negative disables). Entries are keyed on the
	// exact request body and stamped with the producing replica's
	// version token, so a stale model's entry can never serve.
	CacheEntries int
	// Logger receives router events (replica up/down, shed). Nil
	// discards.
	Logger *slog.Logger
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.PoolSize <= 0 {
		out.PoolSize = 2
	}
	if out.PollInterval <= 0 {
		out.PollInterval = time.Second
	}
	if out.DialTimeout <= 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 30 * time.Second
	}
	if out.MaxInflight <= 0 {
		out.MaxInflight = 1024
	}
	if out.MaxPerClient <= 0 {
		out.MaxPerClient = 256
	}
	if out.MaxReplicaInflight <= 0 {
		out.MaxReplicaInflight = 512
	}
	if out.CacheEntries == 0 {
		out.CacheEntries = respcache.Entries
	}
	if out.Logger == nil {
		out.Logger = slog.New(slog.DiscardHandler)
	}
	return out
}

// Router fronts a fleet of resserve replicas behind the single-node
// HTTP and stream surfaces. See the package comment for the routing
// model.
type Router struct {
	opts     Options
	ring     *Ring
	replicas map[string]*replica
	order    []string // ring member order (= configured order, deduped)
	cache    *respcache.Cache[string]
	logger   *slog.Logger

	inflight  atomic.Int64
	clientMu  sync.Mutex
	perClient map[string]*atomic.Int64

	decAffinity  atomic.Uint64
	decSpillover atomic.Uint64
	decShed      atomic.Uint64
	// Lookups the response cache answered and did not; both stay 0 with
	// the cache off.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	framesPerWrite obs.IntHistogram // answer frames per stream-listener write

	obsReg *obs.Registry

	pollStop chan struct{}
	pollWG   sync.WaitGroup
	closed   atomic.Bool

	streamSrv *stream.Listener // nil until StartStream
}

// New builds a router over opts.Replicas and performs one synchronous
// health poll so routing state is live before the first request. The
// background poller then refreshes it every PollInterval.
func New(opts Options) (*Router, error) {
	o := opts.withDefaults()
	if len(o.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	httpc := newHTTPClient()
	rt := &Router{
		opts:      o,
		ring:      NewRing(o.Replicas, defaultVnodes),
		replicas:  make(map[string]*replica),
		cache:     respcache.New[string](o.CacheEntries),
		logger:    o.Logger,
		perClient: make(map[string]*atomic.Int64),
		pollStop:  make(chan struct{}),
	}
	rt.order = rt.ring.Members()
	for _, name := range rt.order {
		rt.replicas[name] = newReplica(name, o.PoolSize, httpc)
	}
	rt.obsReg = obs.NewRegistry()
	rt.obsReg.Register(rt.Collector())
	rt.PollNow()
	rt.pollWG.Add(1)
	go rt.pollLoop()
	return rt, nil
}

// PollNow polls every replica's /healthz synchronously — the poller's
// body, exposed so tests (and the startup path) can refresh routing
// state deterministically instead of sleeping out a poll interval.
func (rt *Router) PollNow() {
	ctx, cancel := context.WithTimeout(context.Background(), rt.opts.DialTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range rt.order {
		rp := rt.replicas[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			wasHealthy, _ := rp.state()
			rp.poll(ctx)
			nowHealthy, _ := rp.state()
			if wasHealthy != nowHealthy {
				if nowHealthy {
					rt.logger.Info("replica up", "replica", rp.name)
				} else {
					rp.mu.Lock()
					err := rp.lastErr
					rp.mu.Unlock()
					rt.logger.Warn("replica down", "replica", rp.name, "error", err)
				}
			}
		}()
	}
	wg.Wait()
}

func (rt *Router) pollLoop() {
	defer rt.pollWG.Done()
	t := time.NewTicker(rt.opts.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			rt.PollNow()
		case <-rt.pollStop:
			return
		}
	}
}

// Close stops the poller, the stream listener, and every replica
// connection pool.
func (rt *Router) Close() {
	if !rt.closed.CompareAndSwap(false, true) {
		return
	}
	close(rt.pollStop)
	rt.pollWG.Wait()
	if rt.streamSrv != nil {
		_ = rt.streamSrv.Close()
	}
	for _, rp := range rt.replicas {
		rp.close()
	}
}

// FleetConsistent reports whether every healthy replica carries the
// same version token — false mid-rollout.
func (rt *Router) FleetConsistent() bool {
	tok, first := "", true
	for _, name := range rt.order {
		healthy, t := rt.replicas[name].state()
		if !healthy {
			continue
		}
		if first {
			tok, first = t, false
		} else if t != tok {
			return false
		}
	}
	return true
}

// The router's own refusals, in serve's envelope: an unavailable code
// is answered 503 with Retry-After on the HTTP surface.
var (
	errShed      = &serve.Error{Message: "router overloaded, retry later", Code: serve.CodeUnavailable}
	errNoReplica = &serve.Error{Message: "no healthy version-consistent replica available", Code: serve.CodeUnavailable}
)

// admit acquires admission for one request from client. The returned
// counter must be handed to release exactly once. ok=false means shed.
func (rt *Router) admit(client string) (ctr *atomic.Int64, ok bool) {
	if rt.inflight.Add(1) > int64(rt.opts.MaxInflight) {
		rt.inflight.Add(-1)
		rt.decShed.Add(1)
		return nil, false
	}
	rt.clientMu.Lock()
	ctr = rt.perClient[client]
	if ctr == nil {
		// Bound the admission table: a client key is an address or an
		// explicit ID; evict idle entries rather than growing forever.
		if len(rt.perClient) >= 4096 {
			for k, v := range rt.perClient {
				if v.Load() == 0 {
					delete(rt.perClient, k)
				}
			}
		}
		ctr = new(atomic.Int64)
		rt.perClient[client] = ctr
	}
	rt.clientMu.Unlock()
	if ctr.Add(1) > int64(rt.opts.MaxPerClient) {
		ctr.Add(-1)
		rt.inflight.Add(-1)
		rt.decShed.Add(1)
		return nil, false
	}
	return ctr, true
}

// release gives back the admission that admit returned ctr for.
func (rt *Router) release(ctr *atomic.Int64) {
	ctr.Add(-1)
	rt.inflight.Add(-1)
}

// primaryServes reports whether tok is the version token of schema's
// ring-primary replica — the token a cache entry must carry to be
// served. Known even while the primary is down (last poll's value), ""
// when never observed, which no entry carries.
func (rt *Router) primaryServes(schema, tok string) bool {
	_, cur := rt.replicas[rt.ring.Pick(schema)].state()
	return tok == cur
}

// pick selects the serving replica for schema: the ring-primary when
// healthy and under its overload bound, else the first healthy
// successor carrying the primary's model versions. spill reports a
// non-primary choice. skipped lets a forwarding retry exclude
// replicas that just failed.
func (rt *Router) pick(schema string, skipped map[string]bool) (rp *replica, spill bool) {
	var buf [8]string // up to eight replicas are ranked without an allocation
	prefs := rt.ring.appendPicks(buf[:0], schema, len(rt.order))
	if len(prefs) == 0 {
		return nil, false
	}
	_, primTok := rt.replicas[prefs[0]].state()
	for i, name := range prefs {
		if skipped[name] {
			continue
		}
		cand := rt.replicas[name]
		healthy, tok := cand.state()
		if !healthy {
			continue
		}
		if cand.inflight.Load() >= int64(rt.opts.MaxReplicaInflight) {
			continue
		}
		// Version-skew guard: mid-rollout, a schema's traffic must not
		// flap between model generations — spill only to replicas
		// serving the primary's versions. An unknown primary token
		// (never polled healthy) waives the guard rather than blackholing
		// the schema.
		if i > 0 && primTok != "" && tok != primTok {
			continue
		}
		return cand, i > 0
	}
	return nil, false
}

// estimate answers one single-estimate request body with the replica's
// response bytes — byte-identical to what the replica's own HTTP
// endpoint would have written — from the router cache when it can,
// else by forwarding.
func (rt *Router) estimate(ctx context.Context, body []byte) ([]byte, *serve.Error) {
	if resp, ok := rt.cached(body); ok {
		return resp, nil
	}
	return rt.forward(ctx, body)
}

// cached looks body up in the router cache. Nothing is parsed: the
// entry knows its schema, and is served only while its token is that
// schema's ring-primary's current one.
func (rt *Router) cached(body []byte) ([]byte, bool) {
	if rt.cache == nil {
		return nil, false
	}
	resp, ok := rt.cache.Get(body, rt.primaryServes)
	if ok {
		rt.cacheHits.Add(1)
	} else {
		rt.cacheMisses.Add(1)
	}
	return resp, ok
}

// route is the failover ladder of every routed request made under ctx:
// try runs against schema's replica (pick: affinity, then
// version-consistent spillover). A try error is transport-only: the
// replica died mid-request, so it is marked down, moving routing at
// once instead of waiting out a poll, and one successor is tried —
// unless ctx has ended, when the request failed, not the replica, and
// the timeout is the answer. route counts the routing decision and the
// replica's request for the try that answered, or one shed when no
// replica did; errNoReplica is the refusal then.
func (rt *Router) route(ctx context.Context, schema string, try func(*replica) error) *serve.Error {
	var skipped map[string]bool
	for attempt := 0; attempt < 2; attempt++ {
		rp, spill := rt.pick(schema, skipped)
		if rp == nil {
			break
		}
		err := try(rp)
		if err == nil {
			rt.counted(rp, spill)
			return nil
		}
		if !rp.blame(ctx, err) {
			return serve.ErrorFor(ctx.Err())
		}
		rt.logger.Warn("replica failed mid-request", "replica", rp.name, "error", err)
		if skipped == nil {
			skipped = make(map[string]bool, 2)
		}
		skipped[rp.name] = true
	}
	rt.decShed.Add(1)
	return errNoReplica
}

// counted counts a request rp answered: the routing decision that chose
// rp, affinity or spillover, and the replica's request.
func (rt *Router) counted(rp *replica, spill bool) {
	if spill {
		rt.decSpillover.Add(1)
	} else {
		rt.decAffinity.Add(1)
	}
	rp.requests.Add(1)
}

// forward routes body by its schema to a replica and caches the
// answer. body is retained past the call only as a copy.
func (rt *Router) forward(ctx context.Context, body []byte) ([]byte, *serve.Error) {
	schema := serve.PeekSchema(body)
	var (
		resp    []byte
		refusal *serve.Error // the replica's
	)
	if rerr := rt.route(ctx, schema, func(rp *replica) error {
		// The token the answer is filed under is the one rp reported
		// before it was asked: a poll landing mid-forward moves it, and
		// the fill is then dropped rather than guessed at.
		_, tok := rp.state()
		var err error
		resp, refusal, err = rt.forwardOnce(ctx, rp, body)
		if err == nil && refusal == nil && rt.cache != nil {
			// A stream answer shares its allocation with the rest of its
			// read burst; the cache keeps only the answer.
			rt.cache.Put(string(body), schema, tok, bytes.Clone(resp), rp.reports)
		}
		return err
	}); rerr != nil {
		// No replica answered, and the cache — consulted before anything
		// was forwarded — had no live entry.
		return nil, rerr
	}
	return resp, refusal
}

// forwardOnce sends body to rp over its stream pool, or to its POST
// /estimate when the replica advertises no stream listener or the
// pooled connection is lost (the next poll replaces it). A non-nil
// transport error means rp never answered; a *serve.Error means it
// answered with a structured error — a refusal with no envelope is an
// internal one — or that ctx ended first: a timeout. A 200's bytes are
// the replica's, verbatim.
func (rt *Router) forwardOnce(ctx context.Context, rp *replica, body []byte) ([]byte, *serve.Error, error) {
	rp.inflight.Add(1)
	defer rp.inflight.Add(-1)
	ctx, cancel := context.WithTimeout(ctx, rt.opts.RequestTimeout)
	defer cancel()
	if cc := rp.streamConn(); cc != nil {
		resp, err := cc.EstimateBytes(ctx, body)
		if err == nil {
			return resp, nil, nil
		}
		var se *serve.Error
		switch {
		case errors.As(err, &se):
			return nil, se, nil
		case errors.Is(err, stream.ErrConnLost):
			// The connection is gone, not necessarily the replica: ask
			// it over HTTP, which fails at once if it is dead too.
		case ctx.Err() != nil:
			return nil, serve.ErrorFor(ctx.Err()), nil
		default:
			return nil, nil, err
		}
	}
	status, out, err := readReply(send(ctx, rp, http.MethodPost, "/estimate", jsonHeader, body))
	switch {
	case err == nil:
	case ctx.Err() != nil:
		return nil, serve.ErrorFor(ctx.Err()), nil
	default:
		return nil, nil, err
	}
	if status == http.StatusOK {
		return out, nil, nil
	}
	e := new(serve.Error)
	if json.Unmarshal(out, e) != nil || e.Code == "" {
		e = &serve.Error{Message: fmt.Sprintf("replica error: %d %s", status, http.StatusText(status)), Code: serve.CodeInternal}
	}
	return nil, e, nil
}
