package stream_test

// Tests for the reconnecting client mode: automatic redial with
// backoff after a connection loss, one-shot retry of idempotent
// estimates, the typed ErrConnLost error, and the bounded wait when
// the replica never comes back. Plain Dial's sticky-failure semantics
// are pinned separately by TestStreamIdleReap/TestStreamServerClose.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stream"
)

func dialWith(t testing.TB, srv *stream.Server, opts stream.DialOptions) *stream.Client {
	t.Helper()
	cl, err := stream.DialWith(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// waitFor polls cond until it holds, failing the test with what after
// five seconds.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// parkSignal is a context that tells when a caller starts to wait on
// it: Done is what a select evaluates on its way to parking.
type parkSignal struct {
	context.Context
	once    sync.Once
	parking chan struct{}
}

func (p *parkSignal) Done() <-chan struct{} {
	p.once.Do(func() { close(p.parking) })
	return p.Context.Done()
}

// TestClientReconnectAfterIdleReap: a reconnecting client whose
// connection the server reaped redials transparently — the next
// estimate succeeds instead of failing with the sticky error plain
// Dial would surface.
func TestClientReconnectAfterIdleReap(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{IdleTimeout: 50 * time.Millisecond})
	cl := dialWith(t, srv, stream.DialOptions{Reconnect: true})

	req := &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[0])}
	ctx := context.Background()
	// Twice: the second response reports fully-warm cache counters, so
	// it is the stable baseline the post-reconnect response must match.
	var first []byte
	for k := 0; k < 2; k++ {
		var err error
		first, err = cl.EstimateRaw(ctx, req)
		if err != nil {
			t.Fatalf("estimate before reap: %v", err)
		}
	}

	// Reaped: some connection the server accepted is no longer open
	// (the client may already have redialed, and be counted again).
	waitFor(t, "the server reaps the idle connection", func() bool {
		st := srv.Stats()
		return int64(st.Accepted) > st.Open
	})

	second, err := cl.EstimateRaw(ctx, req)
	if err != nil {
		t.Fatalf("estimate after reap should have redialed, got: %v", err)
	}
	if string(first) != string(second) {
		t.Fatalf("responses differ across reconnect:\n%s\n%s", first, second)
	}
}

// TestClientConnLostTyped: once the server is gone for good, a
// reconnecting client fails with ErrConnLost (after its bounded
// redial wait) rather than wedging forever on a background context.
func TestClientConnLostTyped(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{})
	cl := dialWith(t, srv, stream.DialOptions{
		Reconnect:      true,
		ConnectTimeout: 200 * time.Millisecond,
	})

	req := &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[0])}
	if _, err := cl.EstimateRaw(context.Background(), req); err != nil {
		t.Fatalf("estimate: %v", err)
	}

	srv.Close() // listener gone: redials can never succeed

	start := time.Now()
	_, err := cl.EstimateRaw(context.Background(), req)
	if err == nil {
		t.Fatal("estimate against a dead fleet should fail")
	}
	if !errors.Is(err, stream.ErrConnLost) {
		t.Fatalf("want ErrConnLost, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("failure took %v; the redial wait must be bounded by ConnectTimeout", elapsed)
	}
}

// TestClientRequestContextBoundsRedialWait: a request deadline earlier
// than ConnectTimeout wins while the client is disconnected.
func TestClientRequestContextBoundsRedialWait(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{})
	cl := dialWith(t, srv, stream.DialOptions{
		Reconnect:      true,
		ConnectTimeout: 10 * time.Second,
	})

	req := &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[0])}
	if _, err := cl.EstimateRaw(context.Background(), req); err != nil {
		t.Fatalf("estimate: %v", err)
	}
	srv.Close()
	// The next call is to park on the redial, not find out on a write.
	waitFor(t, "the loss lands", func() bool { return !cl.Connected() })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.EstimateRaw(ctx, req)
	if err == nil {
		t.Fatal("estimate should fail while disconnected")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, stream.ErrConnLost) {
		t.Fatalf("want deadline or conn-lost error, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("request waited %v; its own deadline should have cut the redial wait", elapsed)
	}
}

// TestClientCloseStopsRedial: Close while disconnected wakes parked
// requests and later calls fail immediately.
func TestClientCloseStopsRedial(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{})
	cl, err := stream.DialWith(srv.Addr(), stream.DialOptions{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	req := &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[0])}
	if _, err := cl.EstimateRaw(context.Background(), req); err != nil {
		t.Fatalf("estimate: %v", err)
	}
	srv.Close()
	waitFor(t, "the loss lands", func() bool { return !cl.Connected() })

	// Close once the request has picked up the redial's ready channel
	// and is on its way to waiting on it — not before, when it would
	// only find the client closed.
	ctx := &parkSignal{Context: context.Background(), parking: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := cl.EstimateRaw(ctx, req)
		done <- err
	}()
	select {
	case <-ctx.parking:
	case <-time.After(2 * time.Second):
		t.Fatal("request never waited for the redial")
	}
	cl.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("request parked across Close should fail")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request still parked after Close")
	}
	if _, err := cl.EstimateRaw(context.Background(), req); err == nil {
		t.Fatal("estimate after Close should fail")
	}
}
