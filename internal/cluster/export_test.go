package cluster

import (
	"context"
	"time"

	"repro/internal/stream"
)

// Hooks for the external tests (package cluster_test), which own the
// in-process replica fixtures.

// Admit takes one admission slot for client, as a request would.
func (rt *Router) Admit(client string) (release func(), ok bool) {
	ctr, ok := rt.admit(client)
	if !ok {
		return nil, false
	}
	return func() { rt.release(ctr) }, true
}

// Estimate answers body as POST /estimate does, returning the bytes
// the router would write.
func (rt *Router) Estimate(ctx context.Context, body []byte) ([]byte, error) {
	resp, rerr := rt.estimate(ctx, body)
	if rerr != nil {
		return nil, rerr
	}
	return resp, nil
}

// AdmissionHeld returns the admission the router holds: requests in
// flight through it, and the sum of its per-client counters.
func (rt *Router) AdmissionHeld() (inflight, perClient int64) {
	rt.clientMu.Lock()
	defer rt.clientMu.Unlock()
	for _, ctr := range rt.perClient {
		perClient += ctr.Load()
	}
	return rt.inflight.Load(), perClient
}

// Primary returns the ring-primary replica of schema.
func (rt *Router) Primary(schema string) string { return rt.ring.Pick(schema) }

// StreamQueued returns, for every open connection of the stream
// listener, the answer bytes queued for it and not yet handed to the
// socket.
func (rt *Router) StreamQueued() []int { return rt.streamSrv.Queued() }

// StreamOpen returns the stream listener's open-connection count.
func (rt *Router) StreamOpen() int64 { return rt.streamSrv.Open() }

// StartStreamIdle is StartStream with the listener's idle timeout set.
func (rt *Router) StartStreamIdle(addr string, idle time.Duration) (string, error) {
	return rt.startStream(addr, stream.Options{IdleTimeout: idle})
}
