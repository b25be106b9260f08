package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
)

// replica is the router's view of one resserve process: the HTTP base
// URL it was configured with, the health and model-version state the
// poller maintains, a pool of reconnecting stream connections, and
// the per-replica counters the metrics surface reports.
type replica struct {
	name string // as configured (the ring key)
	base string // normalized HTTP base URL

	httpc *http.Client

	// Poller state. token is the replica's store checksum — the
	// version-vector digest /healthz reports — and is what the router
	// compares for skew detection and stamps on cache entries.
	mu         sync.Mutex
	healthy    bool
	token      string
	streamAddr string
	lastErr    error

	// Stream connection pool, created once the poller learns the
	// replica's stream address. next round-robins across it.
	pool     []*stream.Client
	poolOpts stream.DialOptions
	poolSize int
	next     atomic.Uint64

	inflight atomic.Int64 // requests currently forwarded to this replica

	requests obs.Counter
	errors   obs.Counter
}

func newReplica(name string, poolSize int, poolOpts stream.DialOptions, httpc *http.Client) *replica {
	base := name
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &replica{
		name:     name,
		base:     strings.TrimRight(base, "/"),
		httpc:    httpc,
		poolSize: poolSize,
		poolOpts: poolOpts,
	}
}

// poll refreshes health, version token and stream address from one
// GET /healthz round trip, (re)building the stream pool when the
// stream address first appears or moves.
func (rp *replica) poll(ctx context.Context) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rp.base+"/healthz", nil)
	if err != nil {
		rp.setDown(err)
		return
	}
	resp, err := rp.httpc.Do(req)
	if err != nil {
		rp.setDown(err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		rp.setDown(err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		rp.setDown(fmt.Errorf("cluster: %s /healthz: %s", rp.name, resp.Status))
		return
	}
	// The fields routing reads of serve's healthJSON.
	var h struct {
		StoreChecksum string `json:"store_checksum"`
		StreamAddr    string `json:"stream_addr"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		rp.setDown(fmt.Errorf("cluster: %s /healthz: %v", rp.name, err))
		return
	}

	rp.mu.Lock()
	rp.healthy = true
	rp.lastErr = nil
	rp.token = h.StoreChecksum
	moved := h.StreamAddr != "" && h.StreamAddr != rp.streamAddr
	if moved {
		rp.streamAddr = h.StreamAddr
	}
	rp.mu.Unlock()
	if moved {
		rp.rebuildPool(h.StreamAddr)
	}
}

func (rp *replica) setDown(err error) {
	rp.mu.Lock()
	rp.healthy = false
	rp.lastErr = err
	rp.mu.Unlock()
}

// rebuildPool dials poolSize reconnecting stream connections to addr,
// closing any previous pool. Dial failures leave the pool smaller
// (the reconnecting clients that did connect still cover the
// replica); a fully failed pool falls back to HTTP forwarding.
func (rp *replica) rebuildPool(addr string) {
	fresh := make([]*stream.Client, 0, rp.poolSize)
	for i := 0; i < rp.poolSize; i++ {
		cl, err := stream.DialWith(addr, rp.poolOpts)
		if err != nil {
			break
		}
		fresh = append(fresh, cl)
	}
	rp.mu.Lock()
	old := rp.pool
	rp.pool = fresh
	rp.mu.Unlock()
	for _, cl := range old {
		cl.Close()
	}
}

// streamConn returns one pooled stream connection, round-robin, or
// nil when the replica has no stream pool (no stream address
// advertised, or every dial failed).
func (rp *replica) streamConn() *stream.Client {
	rp.mu.Lock()
	pool := rp.pool
	rp.mu.Unlock()
	if len(pool) == 0 {
		return nil
	}
	return pool[rp.next.Add(1)%uint64(len(pool))]
}

// state snapshots the poller's view.
func (rp *replica) state() (healthy bool, token string) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.healthy, rp.token
}

// reports tells whether tok is still the token of rp's last poll: what
// decides, once rp has answered, if the answer can be filed under it.
func (rp *replica) reports(_, tok string) bool {
	_, cur := rp.state()
	return tok == cur
}

func (rp *replica) close() {
	rp.mu.Lock()
	pool := rp.pool
	rp.pool = nil
	rp.mu.Unlock()
	for _, cl := range pool {
		cl.Close()
	}
}

// newHTTPClient builds the replica-facing HTTP client of the router and
// of the observation forwarder: generous connection reuse (health polls
// every second across the fleet plus proxied batch traffic), bounded
// dial time so a dead replica is detected quickly.
func newHTTPClient() *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}
