package cluster

import (
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/respcache"
	"repro/internal/stream"
)

func newBareRouter(opts Options) *Router {
	return &Router{
		opts:      opts.withDefaults(),
		perClient: make(map[string]*atomic.Int64),
	}
}

// TestAdmissionBounds pins the load-shedding counters: one client
// cannot exceed its per-client bound, the fleet-wide inflight bound
// caps everyone, releases restore capacity, and every refusal counts
// a shed decision.
func TestAdmissionBounds(t *testing.T) {
	rt := newBareRouter(Options{MaxInflight: 2, MaxPerClient: 1})

	relA, ok := rt.admit("client-a")
	if !ok {
		t.Fatal("first request from client-a shed")
	}
	if _, ok := rt.admit("client-a"); ok {
		t.Fatal("client-a exceeded its per-client bound")
	}
	relB, ok := rt.admit("client-b")
	if !ok {
		t.Fatal("client-b shed under the global bound")
	}
	if _, ok := rt.admit("client-c"); ok {
		t.Fatal("global inflight bound not enforced")
	}
	if got := rt.decShed.Load(); got != 2 {
		t.Fatalf("shed decisions = %d, want 2", got)
	}

	rt.release(relA)
	rt.release(relB)
	if rt.inflight.Load() != 0 {
		t.Fatalf("inflight = %d after all releases, want 0", rt.inflight.Load())
	}
	relA2, ok := rt.admit("client-a")
	if !ok {
		t.Fatal("client-a shed after its slot was released")
	}
	rt.release(relA2)
}

// discardConn is a peer that takes every write at once.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestHitPathAllocatesNothing pins the cost of a router cache hit on
// the stream listener's read loop to a lookup and a copy: probing the
// cache with the frame's bytes, checking the entry's token against its
// schema's ring-primary, and appending the answer frame to the
// connection's writer allocate nothing. So does Ring.Pick by itself.
func TestHitPathAllocatesNothing(t *testing.T) {
	rt := newBareRouter(Options{})
	rt.ring = NewRing([]string{"r1", "r2"}, 0)
	rt.replicas = map[string]*replica{"r1": {healthy: true, token: "v1"}, "r2": {healthy: true, token: "v1"}}
	rt.cache = respcache.New[string](16)
	body := []byte(`{"schema":"tpch","resource":"cpu","plan":{}}`)
	rt.cache.Put(string(body), "tpch", "v1", []byte(`{"total":1.5}`), rt.primaryServes)

	w := stream.NewFrameWriter(discardConn{}, 0, nil)
	go func() { _ = w.Run() }()
	defer w.Close()

	var seq uint64
	if n := testing.AllocsPerRun(2000, func() {
		resp, ok := rt.cached(body)
		if !ok {
			t.Fatal("cached entry missed")
		}
		seq++
		if err := w.Queue(&stream.Frame{Type: stream.FrameResponse, Seq: seq, Body: resp}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a cache hit allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { ringSink = rt.ring.Pick("tpch") }); n != 0 {
		t.Errorf("Ring.Pick allocates %v times, want 0", n)
	}
}
