package stream

import (
	"context"
	"strings"
	"sync"
	"time"

	"repro/internal/plan"
	"repro/internal/serve"
)

// The micro-batcher. Requests that are in flight at the same instant —
// regardless of which connection carried them — are collected into
// per-route groups and dispatched as one EstimateStream call once the
// group fills (MaxBatch plans) or ages out (MaxWait). The wait bound
// is the transport's whole latency bargain: a few hundred
// microseconds of added queueing buys every coalesced request the
// batch path's amortized extraction and tree walks, which under load
// repays the wait many times over in queue time not spent.
//
// Dispatches themselves run through a slot semaphore sized to the
// service's worker count. That is the accumulation backpressure: when
// every slot is busy, a timer-expired group is not torn off into a
// tiny batch queued behind a saturated pool — it stays in the map,
// keeps absorbing arrivals up to MaxBatch, and leaves only when a slot
// frees. Under sustained load the realized fill converges on MaxBatch
// instead of on (arrival rate × MaxWait).

// groupKey routes a request to its coalescing group. Requests can only
// share a dispatch when they share everything the batch entry point
// fixes per call: model routing (schema + resource set) and deadline.
type groupKey struct {
	schema    string
	resources string // canonical wire names, comma-joined, request order
	timeoutMS int
}

// pending is one request waiting in a group.
type pending struct {
	conn *Conn
	seq  uint64
	plan *plan.Plan
	enq  time.Time
}

// group accumulates pending requests for one key until flush.
type group struct {
	key     groupKey
	kinds   []plan.ResourceKind
	members []pending
	timer   *time.Timer
	// holds counts MaxWait extensions granted by the adaptive hold
	// (see flush); bounded so the hold can never stall a request past
	// (1+maxHolds)×MaxWait. lastLen is the member count at the last
	// timer fire — growth since then is the hold's evidence that the
	// arrival stream is still flowing.
	holds   int
	lastLen int
}

// maxHolds bounds the adaptive hold: an under-filled group still
// receiving arrivals re-arms its MaxWait timer at most this many
// times, so the total coalescing wait stays ≤ 32×MaxWait (8ms at the
// default) — well below the queueing delay the backlog driving those
// holds implies at that load. holdTarget (fraction of MaxBatch,
// expressed as numerator/denominator) is where holding stops paying:
// past ~3/4 full the batch path's per-plan amortization has flattened,
// and the tail of a fill is better spent starting the next group.
const (
	maxHolds        = 31
	holdTargetNum   = 3
	holdTargetDenom = 4
)

type batcher struct {
	srv *Server
	// slots caps concurrent dispatches (see the package comment); a
	// dispatch holds its slot only through the service call, releasing
	// before the response fan-out so the pool never idles on our writes.
	slots chan struct{}

	mu     sync.Mutex
	groups map[groupKey]*group
}

func newBatcher(srv *Server, maxDispatches int) *batcher {
	return &batcher{
		srv:    srv,
		slots:  make(chan struct{}, maxDispatches),
		groups: make(map[groupKey]*group),
	}
}

// canonicalResources builds the group key's resource component from
// the resolved kinds (post-parse, deduplicated), so "CPU", "cpu" and a
// duplicated name all land in the same group.
func canonicalResources(kinds []plan.ResourceKind) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.WireName()
	}
	return strings.Join(names, ",")
}

// enqueue adds one decoded request to its coalescing group. The first
// member arms the group's MaxWait timer; the MaxBatch-th dispatches
// immediately. Never blocks on the pool — dispatch runs on its own
// goroutine so the caller (a connection's read loop) keeps draining
// frames, which is what keeps cross-connection batches full.
func (b *batcher) enqueue(conn *Conn, seq uint64, kinds []plan.ResourceKind, p *plan.Plan, timeoutMS int, schema string) {
	key := groupKey{schema: schema, resources: canonicalResources(kinds), timeoutMS: timeoutMS}
	b.mu.Lock()
	g, ok := b.groups[key]
	if !ok {
		g = &group{key: key, kinds: kinds, members: make([]pending, 0, b.srv.opts.MaxBatch)}
		b.groups[key] = g
		g.timer = time.AfterFunc(b.srv.opts.MaxWait, func() { b.flush(g) })
	}
	g.members = append(g.members, pending{conn: conn, seq: seq, plan: p, enq: time.Now()})
	if len(g.members) >= b.srv.opts.MaxBatch {
		delete(b.groups, key)
		g.timer.Stop()
		b.mu.Unlock()
		go func() {
			b.slots <- struct{}{}
			b.dispatch(g)
		}()
		return
	}
	b.mu.Unlock()
}

// flush is the group's timer path: the group is now old enough to
// dispatch, but it leaves the map only once a dispatch slot is free —
// until then it stays put and keeps coalescing arrivals. Pointer
// identity guards the race with a size-bound dispatch: if the group
// already left the map (and a same-key successor may sit in its
// place), this goroutine finds someone else's group and must not touch
// it.
func (b *batcher) flush(g *group) {
	b.mu.Lock()
	if b.groups[g.key] != g {
		b.mu.Unlock()
		return
	}
	// Adaptive hold: an under-filled group that is still actively
	// growing re-arms instead of dispatching tiny. Without this, a
	// saturated server settles into a bad equilibrium — every MaxWait
	// it tears off whatever trickled in (arrival rate × MaxWait ≈ a
	// handful), pays full per-dispatch overhead on each sliver, and the
	// wasted overhead is precisely what keeps the arrival trickle slow.
	// The signal is local and self-clocking: ≥2 new members since the
	// last fire proves an arrival stream worth waiting for, so holds
	// continue exactly as long as the stream does. A lone request can
	// pay at most one extra MaxWait (its group's first fire sees growth
	// 1 and dispatches).
	grew := len(g.members) - g.lastLen
	g.lastLen = len(g.members)
	if g.holds < maxHolds && len(g.members) < b.srv.opts.MaxBatch*holdTargetNum/holdTargetDenom && grew >= 2 {
		g.holds++
		b.srv.holds.Add(1)
		g.timer.Reset(b.srv.opts.MaxWait)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	b.slots <- struct{}{} // group keeps absorbing arrivals while we wait
	b.mu.Lock()
	if b.groups[g.key] != g {
		// Filled to MaxBatch while waiting; the enqueue path owns it now
		// (with its own slot claim).
		b.mu.Unlock()
		<-b.slots
		return
	}
	delete(b.groups, g.key)
	b.mu.Unlock()
	b.dispatch(g)
}

// dispatch runs one coalesced group through the serving pool and fans
// the per-plan responses (or one shared error) back to each member's
// connection, matched by sequence ID. The caller must hold a dispatch
// slot; dispatch releases it when the service call returns.
func (b *batcher) dispatch(g *group) {
	srv := b.srv
	wait := time.Since(g.members[0].enq)
	srv.dispatches.Add(1)
	srv.batchFill.Observe(len(g.members))
	srv.coalesceWait.Observe(wait)

	plans := make([]*plan.Plan, len(g.members))
	for i, m := range g.members {
		plans[i] = m.plan
	}
	resps, err := srv.opts.Service.EstimateStream(context.Background(), serve.BatchRequest{
		Schema:    g.key.schema,
		Resources: g.kinds,
		Plans:     plans,
		Timeout:   time.Duration(g.key.timeoutMS) * time.Millisecond,
	}, wait)
	<-b.slots // the pool is free for the next batch; fan-out is ours alone
	if err != nil {
		// The whole group shares routing and deadline, so a lookup or
		// timeout failure is every member's failure; fan the same
		// envelope — HTTP status codes and all — to each.
		_, code := serve.ErrorCode(err)
		for _, m := range g.members {
			srv.sendError(m.conn, m.seq, err.Error(), code)
		}
		return
	}
	for i, m := range g.members {
		srv.sendResponse(m.conn, m.seq, resps[i])
	}
}
