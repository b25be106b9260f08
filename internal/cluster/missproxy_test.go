package cluster_test

// Tests for a miss at the router's stream listener: forwarded from the
// listener's read loop and answered on the replica connection's read
// loop, with whatever could block that loop — a lost connection, the
// request timeout, a client that stops reading, Close — handed on
// without losing or doubling an answer.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/stream"
)

// fakeReplica is a replica the router polls healthy over HTTP and
// reaches over a stream listener the test answers for: every estimate
// frame it reads is counted and handed to answer, which may write an
// answer to the connection, or not. It serves nothing else.
type fakeReplica struct {
	hs     *httptest.Server
	ln     net.Listener
	answer func(c net.Conn, f *stream.Frame)
	read   atomic.Int64 // estimate frames read

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

// newFakeReplica starts a fake replica whose /healthz reports token.
func newFakeReplica(t testing.TB, token string, answer func(c net.Conn, f *stream.Frame)) *fakeReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fr := &fakeReplica{ln: ln, answer: answer}
	health, err := json.Marshal(map[string]string{"store_checksum": token, "stream_addr": ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	fr.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.Error(w, "not served by the fake", http.StatusNotImplemented)
			return
		}
		_, _ = w.Write(health)
	}))
	fr.wg.Add(1)
	go fr.accept()
	t.Cleanup(fr.kill)
	return fr
}

func (fr *fakeReplica) accept() {
	defer fr.wg.Done()
	for {
		c, err := fr.ln.Accept()
		if err != nil {
			return
		}
		fr.mu.Lock()
		fr.conns = append(fr.conns, c)
		fr.mu.Unlock()
		fr.wg.Add(1)
		go func() {
			defer fr.wg.Done()
			br := bufio.NewReader(c)
			for {
				f, err := stream.ReadFrame(br)
				if err != nil {
					return
				}
				fr.read.Add(1)
				if fr.answer != nil {
					fr.answer(c, f)
				}
			}
		}()
	}
}

// kill stops both listeners and drops every stream connection:
// the process-death stand-in. Idempotent.
func (fr *fakeReplica) kill() {
	fr.hs.Close()
	fr.ln.Close()
	fr.mu.Lock()
	for _, c := range fr.conns {
		c.Close()
	}
	fr.mu.Unlock()
	fr.wg.Wait()
}

// waitRead waits until the fake has read n estimate frames.
func (fr *fakeReplica) waitRead(t testing.TB, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); fr.read.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the fake replica read %d estimate frames, want %d", fr.read.Load(), n)
		}
	}
}

// replicaToken returns the version token rep's /healthz reports.
func replicaToken(t testing.TB, rep *testReplica) string {
	t.Helper()
	resp, err := http.Get(rep.hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		StoreChecksum string `json:"store_checksum"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.StoreChecksum
}

// waitAdmissionReleased waits until the router holds no admission.
func waitAdmissionReleased(t testing.TB, rt *cluster.Router) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		inflight, perClient := rt.AdmissionHeld()
		if inflight == 0 && perClient == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission held 5 s after the last answer: %d in flight, %d on the per-client counters", inflight, perClient)
		}
	}
}

// noMoreFrames fails if p reads anything within wait.
func (p *rawPeer) noMoreFrames(wait time.Duration) {
	p.t.Helper()
	_ = p.c.SetReadDeadline(time.Now().Add(wait))
	if f, err := stream.ReadFrame(p.br); err == nil {
		p.t.Fatalf("an extra answer arrived: seq %d type %d body %s", f.Seq, f.Type, f.Body)
	}
}

// TestProxyMissesFailOverWhenReplicaDies: with 48 misses parked on a
// primary that reads and never answers, and 16 more for schemas of the
// other replica, the primary dies. Every miss is answered exactly once,
// with the bytes the survivor gives, the dead replica is marked down,
// and the router's admission counters return to zero.
func TestProxyMissesFailOverWhenReplicaDies(t *testing.T) {
	setup(t)
	survivor := newTestReplica(t)
	dead := newFakeReplica(t, replicaToken(t, survivor), nil)
	rt, _ := newRouter(t, []*testReplica{{hs: dead.hs}, survivor}, func(o *cluster.Options) { o.CacheEntries = -1 })
	addr, err := rt.StartStream("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Four schemas the dead replica is primary for, two the survivor is.
	var onDead, onSurvivor []string
	for s := 0; len(onDead) < 4 || len(onSurvivor) < 2; s++ {
		schema := fmt.Sprintf("w%03d", s)
		if rt.Primary(schema) == dead.hs.URL {
			onDead = append(onDead, schema)
		} else {
			onSurvivor = append(onSurvivor, schema)
		}
	}
	var bodies, want [][]byte
	add := func(schema string, n int) {
		body := estimateBody(t, schema, testPlans[0], "cpu")
		postOK(t, survivor.hs.URL, "/estimate", body)
		resp := postOK(t, survivor.hs.URL, "/estimate", body) // a replay from here on
		for i := 0; i < n; i++ {
			bodies, want = append(bodies, body), append(want, resp)
		}
	}
	for _, schema := range onDead {
		add(schema, 12)
	}
	for _, schema := range onSurvivor[:2] {
		add(schema, 8)
	}

	p := dialRaw(t, addr)
	var burst []byte
	for i, body := range bodies {
		burst = frameBytes(t, burst, uint64(i+1), body)
	}
	if _, err := p.c.Write(burst); err != nil {
		t.Fatal(err)
	}
	dead.waitRead(t, 48)
	dead.kill()

	answered := make(map[uint64]bool, len(bodies))
	for range bodies {
		f := p.read()
		i := int(f.Seq) - 1
		if i < 0 || i >= len(bodies) {
			t.Fatalf("answer for sequence ID %d, which was never sent", f.Seq)
		}
		if answered[f.Seq] {
			t.Fatalf("sequence ID %d answered twice", f.Seq)
		}
		answered[f.Seq] = true
		if f.Type != stream.FrameResponse || !bytes.Equal(f.Body, want[i]) {
			t.Fatalf("seq %d answered type %d body %s, want %s", f.Seq, f.Type, f.Body, want[i])
		}
	}
	p.noMoreFrames(200 * time.Millisecond)

	m := rt.Metrics()
	for _, r := range m.Replicas {
		if r.Name == dead.hs.URL && (r.Healthy || r.Errors < 1) {
			t.Errorf("dead replica after its misses failed over: %+v, want unhealthy with errors >= 1", r)
		}
	}
	if m.Decisions.Shed != 0 || m.Decisions.Affinity+m.Decisions.Spillover != uint64(len(bodies)) {
		t.Errorf("decisions %+v, want %d answered and none shed", m.Decisions, len(bodies))
	}
	waitAdmissionReleased(t, rt)
}

// TestProxyMissTimesOut: a replica that answers every request only
// after the router's RequestTimeout gets each one answered with one
// timeout error frame, as the ladder answers a timeout — counted as the
// replica's request — and the late answers are neither sent on nor
// filed in the router's cache.
func TestProxyMissTimesOut(t *testing.T) {
	setup(t)
	const late = 300 * time.Millisecond
	var writes sync.Mutex
	slow := newFakeReplica(t, "v-slow", func(c net.Conn, f *stream.Frame) {
		seq := f.Seq
		time.AfterFunc(late, func() {
			frame, err := stream.AppendFrame(nil, &stream.Frame{Type: stream.FrameResponse, Seq: seq, Body: []byte(`{"total":1}`)})
			if err != nil {
				panic(err)
			}
			writes.Lock()
			defer writes.Unlock()
			_, _ = c.Write(frame)
		})
	})
	rt, _ := newRouter(t, []*testReplica{{hs: slow.hs}}, func(o *cluster.Options) { o.RequestTimeout = 50 * time.Millisecond })
	addr, err := rt.StartStream("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	body := estimateBody(t, "tpch", testPlans[0], "cpu")
	p := dialRaw(t, addr)

	check := func(first, n uint64) {
		t.Helper()
		var burst []byte
		for seq := first; seq < first+n; seq++ {
			burst = frameBytes(t, burst, seq, body)
		}
		if _, err := p.c.Write(burst); err != nil {
			t.Fatal(err)
		}
		answered := make(map[uint64]bool)
		for range n {
			f := p.read()
			want := stream.ErrorFrame(f.Seq, "context deadline exceeded", "timeout")
			if f.Seq < first || f.Seq >= first+n || answered[f.Seq] {
				t.Fatalf("unexpected or repeated answer for seq %d", f.Seq)
			}
			answered[f.Seq] = true
			if f.Type != want.Type || !bytes.Equal(f.Body, want.Body) {
				t.Fatalf("seq %d answered type %d body %s, want the timeout frame %s", f.Seq, f.Type, f.Body, want.Body)
			}
		}
		p.noMoreFrames(late + 200*time.Millisecond) // the late answers arrive at the router meanwhile
	}
	check(1, 8)
	slow.waitRead(t, 8)
	check(9, 8) // the same body again: nothing was filed for it
	m := rt.Metrics()
	if m.Cache.Hits != 0 || m.Cache.Misses != 16 {
		t.Errorf("cache %+v after 16 timed-out misses, want 16 misses and no hit", m.Cache)
	}
	if m.Decisions.Affinity != 16 || m.Replicas[0].Requests != 16 || m.Replicas[0].Errors != 0 || !m.Replicas[0].Healthy {
		t.Errorf("counters %+v after 16 timeouts, want 16 affinity decisions and 16 requests of a healthy replica", m)
	}
	waitAdmissionReleased(t, rt)
}

// TestProxyMissStalledReader: with the router's cache off, a client
// that pipelines misses and never reads fills its connection's writer
// to its bound; the answers behind it wait on goroutines of the
// listener, not on the replica connection's read loop, so a second
// client's misses keep being answered — over the same replica
// connections — and closing the stalled client releases everything.
func TestProxyMissStalledReader(t *testing.T) {
	rt, addr, _, _, cold, coldResp := streamRouter(t, func(o *cluster.Options) {
		o.CacheEntries = -1
		o.MaxPerClient, o.MaxInflight, o.MaxReplicaInflight = 2048, 4096, 4096
	})
	pool := proxyGoroutines()
	stalled := dialRaw(t, addr)
	// A second host, so the stalled client's admission is not this one's.
	d := net.Dialer{LocalAddr: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 2)}}
	lc, err := d.Dial("tcp", addr)
	if err != nil {
		t.Skipf("no second loopback address to dial from: %v", err)
	}
	t.Cleanup(func() { lc.Close() })
	live := &rawPeer{t: t, c: lc, br: bufio.NewReader(lc)}
	live.roundTrip(0, cold)

	var written atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // ends when the test closes the connection under it
		defer wg.Done()
		chunk := frameBytes(t, nil, 1, cold)
		for i := 0; i < 50000; i++ {
			if _, err := stalled.c.Write(chunk); err != nil {
				return
			}
			written.Add(1)
		}
	}()

	peak := 0
	for last, since := int64(-1), time.Now(); time.Since(since) < 300*time.Millisecond; {
		start := time.Now()
		if f := live.roundTrip(7, cold); f.Type != stream.FrameResponse || !bytes.Equal(f.Body, coldResp) {
			t.Fatalf("second client answered type %d body %s", f.Type, f.Body)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("a miss of the second client took %v", d)
		}
		for _, q := range rt.StreamQueued() {
			peak = max(peak, q)
		}
		if n := written.Load(); n != last {
			last, since = n, time.Now()
		}
	}
	if peak < 256<<10 {
		t.Fatalf("queue peaked at %d bytes: the stalled client's writer never met its bound", peak)
	}
	if n := proxyGoroutines() - pool; n <= 4 {
		t.Fatalf("%d proxy goroutines with the stalled client's writer full: no answer waits for room", n)
	}

	stalled.c.Close()
	wg.Wait()
	for deadline := time.Now().Add(5 * time.Second); proxyGoroutines()-pool != 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d proxy goroutines 5 s after the stalled client closed, want 2", proxyGoroutines()-pool)
		}
	}
	if f := live.roundTrip(8, cold); !bytes.Equal(f.Body, coldResp) {
		t.Fatalf("second client after the close: %s", f.Body)
	}
	lc.Close()
	waitAdmissionReleased(t, rt)
}

// TestProxyCloseWithMissesInFlight: Router.Close with misses parked on
// a replica that never answers returns, and leaves no goroutine of the
// listener running and no admission held.
func TestProxyCloseWithMissesInFlight(t *testing.T) {
	setup(t)
	mute := newFakeReplica(t, "v-mute", nil)
	before := proxyGoroutines()
	rt, _ := newRouter(t, []*testReplica{{hs: mute.hs}}, nil)
	addr, err := rt.StartStream("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	body := estimateBody(t, "tpch", testPlans[0], "cpu")
	p := dialRaw(t, addr)
	var burst []byte
	for seq := uint64(1); seq <= 32; seq++ {
		burst = frameBytes(t, burst, seq, body)
	}
	if _, err := p.c.Write(burst); err != nil {
		t.Fatal(err)
	}
	mute.waitRead(t, 32)

	closed := make(chan struct{})
	go func() {
		rt.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Router.Close did not return within 5 s of 32 misses in flight")
	}
	for deadline := time.Now().Add(5 * time.Second); proxyGoroutines() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d proxy goroutines 5 s after Close, %d before the router", proxyGoroutines(), before)
		}
	}
	waitAdmissionReleased(t, rt)
}
