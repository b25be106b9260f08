package cluster_test

// Tests for the router's stream listener as a raw peer sees it: cache
// hits answered on the read loop, misses forwarded with their own copy
// of the body, admission before the cache, damaged frames refused, and
// a client that stops reading held to a bounded queue.

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/stream"
)

// maxQueued is the most one connection's writer may hold: the
// FrameWriter's bound plus the frame that crossed it (here a response
// of well under 4 KB).
const maxQueued = 256<<10 + 4<<10

// rawPeer is a stream client that writes and reads frames itself, so a
// test controls exactly what shares a write and whether anything is
// read back.
type rawPeer struct {
	t  testing.TB
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t testing.TB, addr string) *rawPeer {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawPeer{t: t, c: c, br: bufio.NewReader(c)}
}

func frameBytes(t testing.TB, dst []byte, seq uint64, body []byte) []byte {
	t.Helper()
	dst, err := stream.AppendFrame(dst, &stream.Frame{Type: stream.FrameEstimate, Seq: seq, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// roundTrip sends one request and returns its answer frame.
func (p *rawPeer) roundTrip(seq uint64, body []byte) *stream.Frame {
	p.t.Helper()
	if _, err := p.c.Write(frameBytes(p.t, nil, seq, body)); err != nil {
		p.t.Fatal(err)
	}
	return p.read()
}

func (p *rawPeer) read() *stream.Frame {
	p.t.Helper()
	_ = p.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := stream.ReadFrame(p.br)
	if err != nil {
		p.t.Fatalf("reading an answer: %v", err)
	}
	return f
}

// streamRouter stands up one replica behind a router with its stream
// listener started, and returns two request bodies with the answers a
// warm replica gives them: hot is already in the router's cache, cold
// is not.
func streamRouter(t testing.TB, mut func(*cluster.Options)) (rt *cluster.Router, addr string, hot, hotResp, cold, coldResp []byte) {
	t.Helper()
	rep := newTestReplica(t)
	rt, rhs := newRouter(t, []*testReplica{rep}, mut)
	addr, err := rt.StartStream("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hot = estimateBody(t, "tpch", testPlans[0], "cpu")
	cold = estimateBody(t, "tpch", testPlans[1], "cpu")
	// Second servings: the replica's own prediction cache is warm, so
	// every later answer for these bodies is these bytes.
	for _, b := range [][]byte{hot, cold} {
		postOK(t, rep.hs.URL, "/estimate", b)
	}
	hotResp, coldResp = postOK(t, rep.hs.URL, "/estimate", hot), postOK(t, rep.hs.URL, "/estimate", cold)
	if got := postOK(t, rhs.URL, "/estimate", hot); !bytes.Equal(got, hotResp) { // fills the router cache
		t.Fatalf("router answered %s, replica %s", got, hotResp)
	}
	return rt, addr, hot, hotResp, cold, coldResp
}

// TestProxyPipelinedMissThenHits writes one miss followed by 200 hits
// in a single burst on one connection and wants all 201 sequence IDs
// back with the right bodies. The hits are answered on the read loop
// out of a buffer that is refilled several times while the miss is
// still being forwarded on its own goroutine — under -race that fails
// if the forwarded body aliases the buffer.
func TestProxyPipelinedMissThenHits(t *testing.T) {
	rt, addr, hot, hotResp, cold, coldResp := streamRouter(t, nil)
	before := rt.Metrics().Cache
	p := dialRaw(t, addr)

	const hits, coldSeq = 200, 1 << 40
	burst := frameBytes(t, nil, coldSeq, cold)
	for i := 1; i <= hits; i++ {
		burst = frameBytes(t, burst, uint64(i), hot)
	}
	if _, err := p.c.Write(burst); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool, hits+1)
	for i := 0; i <= hits; i++ {
		f := p.read()
		want := hotResp
		if f.Seq == coldSeq {
			want = coldResp
		} else if f.Seq < 1 || f.Seq > hits {
			t.Fatalf("answer for sequence ID %d, which was never sent", f.Seq)
		}
		if f.Type != stream.FrameResponse || !bytes.Equal(f.Body, want) {
			t.Fatalf("seq %d answered type %d body %s, want %s", f.Seq, f.Type, f.Body, want)
		}
		if seen[f.Seq] {
			t.Fatalf("sequence ID %d answered twice", f.Seq)
		}
		seen[f.Seq] = true
	}
	after := rt.Metrics().Cache
	if h, m := after.Hits-before.Hits, after.Misses-before.Misses; h != hits || m != 1 {
		t.Fatalf("burst counted %d hits %d misses, want %d/1", h, m, hits)
	}
}

// TestProxyAdmitsBeforeCache: admission is evaluated for every frame,
// cached or not — with the router's only slot taken, a request whose
// answer sits in the cache is shed, not served.
func TestProxyAdmitsBeforeCache(t *testing.T) {
	rt, addr, hot, hotResp, _, _ := streamRouter(t, func(o *cluster.Options) { o.MaxInflight = 1 })
	p := dialRaw(t, addr)

	release, ok := rt.Admit("someone else")
	if !ok {
		t.Fatal("idle router refused admission")
	}
	before := rt.Metrics()
	f := p.roundTrip(1, hot)
	if f.Type != stream.FrameError || !bytes.Contains(f.Body, []byte(`"code":"unavailable"`)) {
		t.Fatalf("full router answered type %d body %s, want an unavailable error", f.Type, f.Body)
	}
	after := rt.Metrics()
	if after.Cache.Hits != before.Cache.Hits || after.Decisions.Shed != before.Decisions.Shed+1 {
		t.Fatalf("shed request moved the counters from %+v to %+v", before, after)
	}
	release()
	if f := p.roundTrip(2, hot); f.Type != stream.FrameResponse || !bytes.Equal(f.Body, hotResp) {
		t.Fatalf("after release: type %d body %s", f.Type, f.Body)
	}
}

// TestProxyRefusesDamagedFrame: a frame that fails its CRC is never
// looked up, let alone answered — the connection is closed.
func TestProxyRefusesDamagedFrame(t *testing.T) {
	rt, addr, hot, _, _, _ := streamRouter(t, nil)
	p := dialRaw(t, addr)
	before := rt.Metrics().Cache

	damaged := frameBytes(t, nil, 1, hot)
	damaged[len(damaged)-2] ^= 0x01 // still valid JSON of the same length; only the CRC knows
	if _, err := p.c.Write(damaged); err != nil {
		t.Fatal(err)
	}
	_ = p.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if f, err := stream.ReadFrame(p.br); err == nil {
		t.Fatalf("damaged frame was answered: type %d body %s", f.Type, f.Body)
	}
	if after := rt.Metrics().Cache; after != before {
		t.Fatalf("damaged frame reached the cache: %+v -> %+v", before, after)
	}
}

// proxyGoroutines counts the goroutines serving stream listeners'
// connections: a read loop and a writer each. The router's listener is
// the replica's, and the fixture's replica runs in this process, so the
// connections of the router's pool are in the count — a constant a test
// measures before it dials and subtracts.
func proxyGoroutines() int {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 2)
	n := 0
	for _, g := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(g, "stream.(*Conn).readLoop") || strings.Contains(g, "stream.(*Listener).acceptLoop.func") {
			n++
		}
	}
	return n
}

// TestProxyStalledReader: a client that pipelines 50 000 requests and
// never reads an answer cannot make the router buffer them. Its read
// loop blocks on the bounded writer queue, TCP pushes back on the
// client, a second connection is served throughout, and closing the
// stalled client releases both of its goroutines at once — not at the
// 30 s write timeout, which this test must not have to wait out.
func TestProxyStalledReader(t *testing.T) {
	rt, addr, hot, hotResp, _, _ := streamRouter(t, nil)
	pool := proxyGoroutines()
	stalled, live := dialRaw(t, addr), dialRaw(t, addr)
	live.roundTrip(0, hot)
	if n := proxyGoroutines() - pool; n != 4 {
		t.Fatalf("%d proxy goroutines for two connections, want 4", n)
	}

	const requests = 50000
	var written atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // ends when the test closes the connection under it
		defer wg.Done()
		chunk := frameBytes(t, nil, 1, hot)
		for i := 0; i < requests; i++ {
			if _, err := stalled.c.Write(chunk); err != nil {
				return
			}
			written.Add(1)
		}
	}()

	// Until the writer above has made no progress for 300 ms — TCP has
	// pushed back — keep the second connection busy and watch the queues.
	peak := 0
	for last, since := int64(-1), time.Now(); time.Since(since) < 300*time.Millisecond; {
		if f := live.roundTrip(7, hot); f.Type != stream.FrameResponse || !bytes.Equal(f.Body, hotResp) {
			t.Fatalf("second connection answered type %d body %s", f.Type, f.Body)
		}
		for _, q := range rt.StreamQueued() {
			if q > maxQueued {
				t.Fatalf("%d answer bytes queued for one connection, bound is %d", q, maxQueued)
			}
			peak = max(peak, q)
		}
		if n := written.Load(); n != last {
			last, since = n, time.Now()
		}
	}
	if n := written.Load(); n == requests {
		t.Fatalf("all %d requests were accepted from a client that reads nothing", n)
	}
	if peak < 256<<10 {
		t.Fatalf("queue peaked at %d bytes: the read loop never met its bound", peak)
	}

	stalled.c.Close()
	wg.Wait()
	for deadline := time.Now().Add(5 * time.Second); proxyGoroutines()-pool != 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d proxy goroutines 5 s after the stalled client closed, want 2", proxyGoroutines()-pool)
		}
	}
	if f := live.roundTrip(8, hot); !bytes.Equal(f.Body, hotResp) {
		t.Fatalf("second connection after the close: %s", f.Body)
	}
}

// TestProxyIdleReap: the router's listener reaps a connection that
// sends nothing, as a replica's does — no sooner than IdleTimeout, no
// later than 1.5× it (plus scheduling slack) — and a connection that
// keeps sending outlives that.
func TestProxyIdleReap(t *testing.T) {
	rep := newTestReplica(t)
	rt, rhs := newRouter(t, []*testReplica{rep}, nil)
	const idle = 200 * time.Millisecond
	addr, err := rt.StartStreamIdle("127.0.0.1:0", idle)
	if err != nil {
		t.Fatal(err)
	}
	hot := estimateBody(t, "tpch", testPlans[0], "cpu")
	hotResp := postOK(t, rhs.URL, "/estimate", hot) // fills the router cache

	quiet, busy := dialRaw(t, addr), dialRaw(t, addr)
	quiet.roundTrip(0, hot)
	busy.roundTrip(0, hot) // both accepted: the count below starts from 2
	start := time.Now()
	quiet.roundTrip(1, hot)
	for rt.StreamOpen() != 1 {
		if f := busy.roundTrip(2, hot); !bytes.Equal(f.Body, hotResp) {
			t.Fatalf("busy connection answered %s", f.Body)
		}
		if time.Since(start) > 10*idle {
			t.Fatalf("%d connections open %v after the quiet one's last frame, want 1", rt.StreamOpen(), time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if held := time.Since(start); held < idle {
		t.Fatalf("quiet connection reaped after %v, under the %v idle timeout", held, idle)
	}
	_ = quiet.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if f, err := stream.ReadFrame(quiet.br); err != io.EOF {
		t.Fatalf("reaped connection read frame %v, error %v, want a clean close", f, err)
	}
}

// benchProxy drives the router's stream listener over loopback with 64
// requests in flight on one connection. cacheEntries -1 turns the
// response cache off, so every request is forwarded.
func benchProxy(b *testing.B, cacheEntries int) {
	_, addr, hot, hotResp, _, _ := streamRouter(b, func(o *cluster.Options) { o.CacheEntries = cacheEntries })
	cl, err := stream.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				resp, err := cl.EstimateBytes(context.Background(), hot)
				if err != nil || !bytes.Equal(resp, hotResp) {
					b.Errorf("answer %s, error %v", resp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkProxyHit and BenchmarkProxyMiss are the two costs of a
// request at the router: answered from its response cache, or
// forwarded to a replica that answers it from the same cache one tier
// down (stream's BenchmarkStreamReplay is that answer alone). Their
// ratio is what the router's tier of the cache buys.
func BenchmarkProxyHit(b *testing.B)  { benchProxy(b, 0) }
func BenchmarkProxyMiss(b *testing.B) { benchProxy(b, -1) }
