package stream

import (
	"context"
	"strings"
	"sync"
	"time"

	"repro/internal/plan"
	"repro/internal/serve"
)

// The micro-batcher. Requests in flight at the same instant — whichever
// connection carried them — are collected into per-route groups, and
// one rule decides when a group leaves as one EstimateStream call: send
// when nothing for the key is outstanding, accumulate while something
// is (Nagle's rule, RFC 896). A lone request on an idle server leaves
// at once; under load whatever arrives during one dispatch rides the
// next, so the fill follows the traffic with no timer guessing at it.

// maxBatch bounds a dispatch's plan count: past it the batch path's
// per-plan amortization has flattened and a bigger batch only adds
// queueing for its first member.
const maxBatch = 64

// groupKey routes a request to its coalescing group. Requests can only
// share a dispatch when they share everything the batch entry point
// fixes per call: model routing (schema + resource set) and deadline.
type groupKey struct {
	schema    string
	resources string // canonical wire names, comma-joined, request order
	timeoutMS int
}

// pending is one request waiting in a group. key is the request's own
// bytes, kept to file its answer under; "" with the response cache off.
type pending struct {
	conn *Conn
	seq  uint64
	plan *plan.Plan
	key  string
	enq  time.Time
}

// group accumulates one key's pending requests between dispatches.
type group struct {
	key     groupKey
	kinds   []plan.ResourceKind
	members []pending
}

type batcher struct {
	srv *Server
	// slots caps concurrent dispatches at the service's Workers, the
	// number of requests it computes at once: while every slot is busy
	// a group keeps absorbing arrivals instead of sending a sliver to
	// wait for the service's own compute slots. A dispatch holds its
	// slot only through the service call, releasing before the response
	// fan-out so the next batch never waits on our writes.
	slots chan struct{}

	mu sync.Mutex
	// groups holds a key exactly while a runner (run) is alive for it.
	groups map[groupKey]*group
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

// enqueue adds one decoded request, m, to its key's group and starts the
// key's runner if it has none; the maxBatch-th member tears the group's
// members off to dispatch on their own goroutine. Never blocks on a
// dispatch slot, so the caller (a connection's read loop) keeps
// draining frames, which is what lets arrivals from every connection
// share a group.
func (b *batcher) enqueue(m pending, kinds []plan.ResourceKind, timeoutMS int, schema string) {
	key := groupKey{schema: schema, resources: canonicalResources(kinds), timeoutMS: timeoutMS}
	b.mu.Lock()
	defer b.mu.Unlock()
	g, running := b.groups[key]
	if !running {
		g = &group{key: key, kinds: kinds}
		b.groups[key] = g
		go b.run(g)
	}
	m.enq = time.Now()
	g.members = append(g.members, m)
	if len(g.members) == maxBatch {
		full := g.members
		g.members = nil
		go func() {
			b.slots <- struct{}{}
			b.dispatch(g, full)
		}()
	}
}

// run is one key's runner: it dispatches whatever the group holds each
// time it gets a slot, so members accumulate exactly while it waits for
// one or has a dispatch in flight, and exits — dropping the key — when
// a slot finds the group empty. The group fills one buffer while the
// runner dispatches from the other, and the two swap at every slot.
func (b *batcher) run(g *group) {
	var spare []pending
	for {
		b.slots <- struct{}{}
		b.mu.Lock()
		members := g.members
		g.members = spare
		if len(members) == 0 {
			delete(b.groups, g.key)
			b.mu.Unlock()
			<-b.slots
			return
		}
		b.mu.Unlock()
		b.dispatch(g, members)
		clear(members) // the connections, plans and keys are the requests', not the buffer's
		spare = members[:0]
	}
}

// dispatch runs members, all of g's key, through the service as one
// batch and fans the per-plan responses (or one shared error) back to
// each member's connection, matched by sequence ID. The caller must hold a
// dispatch slot; dispatch releases it when the service call returns.
func (b *batcher) dispatch(g *group, members []pending) {
	srv := b.srv
	wait := time.Since(members[0].enq)
	srv.dispatches.Add(1)
	srv.batchFill.Observe(len(members))
	srv.coalesceWait.Observe(wait)

	plans := make([]*plan.Plan, len(members))
	for i, m := range members {
		plans[i] = m.plan
	}
	resps, err := srv.opts.Service.EstimateStream(context.Background(), serve.BatchRequest{
		Schema:    g.key.schema,
		Resources: g.kinds,
		Plans:     plans,
		Timeout:   time.Duration(g.key.timeoutMS) * time.Millisecond,
	}, wait)
	<-b.slots // the service is free for the next batch; fan-out is ours alone
	if err != nil {
		// The whole group shares routing and deadline, so a lookup or
		// timeout failure is every member's failure; fan the same
		// envelope — the HTTP endpoints' code and all — to each.
		e := serve.ErrorFor(err)
		for _, m := range members {
			srv.sendError(m.conn, m.seq, e)
		}
		return
	}
	for i := range members {
		srv.sendResponse(&members[i], g.key.schema, resps[i])
	}
}
