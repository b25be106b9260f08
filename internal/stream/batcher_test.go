package stream_test

// Tests for the coalescer's one rule — send when nothing for the key is
// outstanding, accumulate while something is — made deterministic by
// holding every dispatch slot and releasing on demand.

import (
	"context"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stream"
)

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

// fire starts n concurrent estimates of one resource on cl and returns
// a func that waits for them and reports how many failed.
func fire(t testing.TB, cl *stream.Client, resource string, n int) (failed func() int) {
	t.Helper()
	body := planJSON(t, testPlans[0])
	var wg sync.WaitGroup
	var errs atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := cl.EstimateRaw(ctx, &stream.Request{Resource: resource, Plan: body}); err != nil {
				errs.Add(1)
			}
		}()
	}
	return func() int { wg.Wait(); return int(errs.Load()) }
}

func waitPending(t testing.TB, srv *stream.Server, keys, members int) {
	t.Helper()
	waitFor(t, "the batcher holds the expected members", func() bool {
		k, m := srv.Pending()
		return k == keys && m == members
	})
}

// waitIdle waits until every runner has exited and given its slot back.
func waitIdle(t testing.TB, srv *stream.Server) {
	t.Helper()
	waitFor(t, "the batcher is idle", func() bool {
		k, _ := srv.Pending()
		return k == 0 && srv.DispatchSlotsHeld() == 0
	})
}

// wantFills checks the dispatch count, the plans they carried in total
// and the fullest one.
func wantFills(t testing.TB, srv *stream.Server, dispatches, sum, max uint64) {
	t.Helper()
	fill := srv.BatchFill()
	if st := srv.Stats(); st.Dispatches != dispatches || fill.Count != dispatches || fill.Sum != sum || fill.MaxV != max {
		t.Fatalf("dispatches = %d (histogram %d) carrying %d plans, fullest %d; want %d carrying %d, fullest %d",
			st.Dispatches, fill.Count, fill.Sum, fill.MaxV, dispatches, sum, max)
	}
}

// TestLoneRequestDispatchesAtOnce: nothing outstanding, so the request
// leaves alone, and the batcher keeps neither a slot, a runner nor —
// there is none in the file — a timer.
func TestLoneRequestDispatchesAtOnce(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{})
	cl := dial(t, srv)
	if n := fire(t, cl, "cpu", 1)(); n != 0 {
		t.Fatalf("%d estimates failed", n)
	}
	waitIdle(t, srv)
	wantFills(t, srv, 1, 1, 1)
	if st := srv.Stats(); st.Holds != 0 {
		t.Fatalf("holds = %d, want 0", st.Holds)
	}
	src, err := os.ReadFile("batcher.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, timer := range []string{"time.AfterFunc", "time.Timer", "Reset("} {
		if strings.Contains(string(src), timer) {
			t.Errorf("batcher.go contains %q: the coalescer has no timer", timer)
		}
	}
}

// TestArrivalsBehindBusySlotsShareOneDispatch: while no slot is free
// the group only grows; the slot that frees takes all of it.
func TestArrivalsBehindBusySlotsShareOneDispatch(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{})
	cl := dial(t, srv)
	const k = 23
	release := srv.HoldDispatchSlots()
	failed := fire(t, cl, "cpu", k)
	waitPending(t, srv, 1, k)
	if st := srv.Stats(); st.Dispatches != 0 {
		t.Fatalf("%d dispatches with every slot held", st.Dispatches)
	}
	release()
	if n := failed(); n != 0 {
		t.Fatalf("%d estimates failed", n)
	}
	waitIdle(t, srv)
	wantFills(t, srv, 1, k, k)
}

// TestFullGroupLeavesWithoutTheRunner: the 64th member tears the group
// off while the key's runner still waits for a slot, and the 65th
// starts the next group.
func TestFullGroupLeavesWithoutTheRunner(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{})
	cl := dial(t, srv)
	release := srv.HoldDispatchSlots()
	failed := fire(t, cl, "cpu", 65)
	waitFor(t, "all 65 requests are read", func() bool { return srv.Stats().Requests == 65 })
	waitPending(t, srv, 1, 1)
	release()
	if n := failed(); n != 0 {
		t.Fatalf("%d estimates failed", n)
	}
	waitIdle(t, srv)
	wantFills(t, srv, 2, 65, 64)
}

// TestKeysDispatchApartAndShareOneSlot: requests for different routes
// never share a dispatch, and with a single slot a busy key does not
// starve a quiet one.
func TestKeysDispatchApartAndShareOneSlot(t *testing.T) {
	_, srv := newStream(t, serve.Options{Workers: 1}, stream.Options{})
	cl := dial(t, srv)
	release := srv.HoldDispatchSlots()
	cpu, io := fire(t, cl, "cpu", 3), fire(t, cl, "io", 2)
	waitPending(t, srv, 2, 5)
	release()
	if n := cpu() + io(); n != 0 {
		t.Fatalf("%d estimates failed", n)
	}
	waitIdle(t, srv)
	wantFills(t, srv, 2, 5, 3)

	// Four pipelined callers keep the cpu key's runner asking for the
	// slot; twenty io requests in sequence each still get their turn.
	body := planJSON(t, testPlans[0])
	stop := make(chan struct{})
	var busy sync.WaitGroup
	var cpuFailed atomic.Int64
	for i := 0; i < 4; i++ {
		busy.Add(1)
		go func() {
			defer busy.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := cl.EstimateRaw(context.Background(), &stream.Request{Resource: "cpu", Plan: body}); err != nil {
						cpuFailed.Add(1)
					}
				}
			}
		}()
	}
	ioFailed := 0
	for i := 0; i < 20; i++ {
		ioFailed += fire(t, cl, "io", 1)()
	}
	close(stop)
	busy.Wait()
	if ioFailed != 0 || cpuFailed.Load() != 0 {
		t.Fatalf("%d io and %d cpu estimates failed", ioFailed, cpuFailed.Load())
	}
}

// TestCloseWithMembersPending: Close does not wait for what the batcher
// holds; the members' callers fail, and once a slot frees the runner
// answers into the closed connections and exits.
func TestCloseWithMembersPending(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{})
	cl := dial(t, srv)
	release := srv.HoldDispatchSlots()
	failed := fire(t, cl, "cpu", 3)
	waitPending(t, srv, 1, 3)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close waits for members no slot can take")
	}
	if n := failed(); n != 3 {
		t.Fatalf("%d of 3 estimates failed on a closed server, want all", n)
	}
	release()
	waitIdle(t, srv)
}
