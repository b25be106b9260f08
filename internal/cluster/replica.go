package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// replica is the router's view of one resserve process: the HTTP base
// URL it was configured with, the health and model-version state the
// poller maintains, a pool of stream connections the poller keeps
// live, and the per-replica counters the metrics surface reports.
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

	// Stream connection pool, dialed once the poller learns the
	// replica's stream address and refreshed by every healthy poll.
	// next round-robins across it. poolMu serializes refreshes: two
	// overlapping polls must not both replace one failed client.
	pool     []*stream.Client
	poolSize int
	poolMu   sync.Mutex
	next     atomic.Uint64

	inflight atomic.Int64 // requests currently forwarded to this replica

	requests atomic.Uint64
	errors   atomic.Uint64
}

func newReplica(name string, poolSize int, httpc *http.Client) *replica {
	base := name
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &replica{
		name:     name,
		base:     strings.TrimRight(base, "/"),
		httpc:    httpc,
		poolSize: poolSize,
	}
}

// poll refreshes health, version token and stream address from one
// GET /healthz round trip, then refreshes the stream pool of a replica
// that advertises a stream address.
func (rp *replica) poll(ctx context.Context) {
	status, body, err := readReply(send(ctx, rp, http.MethodGet, "/healthz", nil, nil))
	if err != nil {
		rp.setDown(err)
		return
	}
	if status != http.StatusOK {
		rp.setDown(fmt.Errorf("cluster: %s /healthz: %d %s", rp.name, status, http.StatusText(status)))
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
	if h.StreamAddr != "" {
		rp.refreshPool(h.StreamAddr, moved)
	}
}

// blame counts err, the transport failure of a request made under ctx,
// against rp and marks rp down — unless ctx has ended, when the request
// failed, not rp, and blame records nothing and reports false.
func (rp *replica) blame(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	rp.errors.Add(1)
	rp.setDown(err)
	return true
}

func (rp *replica) setDown(err error) {
	rp.mu.Lock()
	rp.healthy = false
	rp.lastErr = err
	rp.mu.Unlock()
}

// refreshPool is the one way a lost stream connection comes back: it
// replaces every pooled client whose connection failed — all of them
// when the stream address moved — by dialing addr up to poolSize, and
// closes what it replaced. A failed dial leaves the pool smaller until
// the next poll; with no client left the replica is reached over HTTP.
func (rp *replica) refreshPool(addr string, moved bool) {
	rp.poolMu.Lock()
	defer rp.poolMu.Unlock()
	rp.mu.Lock()
	old := rp.pool
	rp.mu.Unlock()
	fresh := make([]*stream.Client, 0, rp.poolSize)
	var dropped []*stream.Client
	for _, cl := range old {
		if moved || cl.Err() != nil {
			dropped = append(dropped, cl)
		} else {
			fresh = append(fresh, cl)
		}
	}
	for len(fresh) < rp.poolSize {
		cl, err := stream.Dial(addr)
		if err != nil {
			break
		}
		fresh = append(fresh, cl)
	}
	rp.mu.Lock()
	rp.pool = fresh
	rp.mu.Unlock()
	for _, cl := range dropped {
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
