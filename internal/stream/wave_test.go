package stream

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// The wave rule, seen from the server's end of a client's connection.
// The peer answers only when told, each set of answers in one write,
// and the connection is a pipe, so every answer set is one burst to the
// client and every socket write the client makes is seen whole.

var (
	waveBody   = []byte(`{"schema":"tpch","plan":{}}`)
	waveAnswer = []byte(`{"total":1.5}`)
)

// countingConn counts the frames in each of the client's socket writes.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes []int
}

func (c *countingConn) Write(p []byte) (int, error) {
	_, k := wholeFrames(p)
	c.mu.Lock()
	c.writes = append(c.writes, k)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

type wavePeer struct {
	t    *testing.T
	cl   *Client
	conn *countingConn
	srv  net.Conn
	reqs chan uint64 // the sequence IDs of the requests the peer read
}

func newWavePeer(t *testing.T) *wavePeer {
	cc, srv := net.Pipe()
	p := &wavePeer{t: t, conn: &countingConn{Conn: cc}, srv: srv, reqs: make(chan uint64, 64)}
	p.cl = newClient(p.conn)
	go func() {
		defer close(p.reqs)
		br := bufio.NewReader(srv)
		for {
			f, err := ReadFrame(br)
			if err != nil {
				return
			}
			p.reqs <- f.Seq
		}
	}()
	t.Cleanup(func() { p.cl.Close(); srv.Close() })
	return p
}

type callResult struct {
	body []byte
	err  error
}

// call starts one estimate.
func (p *wavePeer) call(ctx context.Context) <-chan callResult {
	out := make(chan callResult, 1)
	go func() {
		body, err := p.cl.EstimateBytes(ctx, waveBody)
		out <- callResult{body, err}
	}()
	return out
}

// await returns the next n requests the peer reads.
func (p *wavePeer) await(n int) []uint64 {
	p.t.Helper()
	seqs := make([]uint64, n)
	for i := range seqs {
		select {
		case seq, ok := <-p.reqs:
			if !ok {
				p.t.Fatalf("connection closed after %d of %d requests", i, n)
			}
			seqs[i] = seq
		case <-time.After(5 * time.Second):
			p.t.Fatalf("%d of %d requests reached the peer", i, n)
		}
	}
	return seqs
}

// answer writes an answer to each of seqs in one write: one burst.
func (p *wavePeer) answer(seqs ...uint64) {
	p.t.Helper()
	var buf []byte
	for _, seq := range seqs {
		var err error
		if buf, err = AppendFrame(buf, &Frame{Type: FrameResponse, Seq: seq, Body: waveAnswer}); err != nil {
			p.t.Fatal(err)
		}
	}
	if _, err := p.srv.Write(buf); err != nil {
		p.t.Fatal(err)
	}
}

// writes returns the frames in each of the client's socket writes.
func (p *wavePeer) writes() []int {
	p.conn.mu.Lock()
	defer p.conn.mu.Unlock()
	return append([]int(nil), p.conn.writes...)
}

// held waits until n requests are held, their frames queued and the
// writer not woken for them.
func (p *wavePeer) held(n int) {
	p.t.Helper()
	size := frameHeader + framePrefix + len(waveBody)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		p.cl.mu.Lock()
		held := p.cl.held
		p.cl.mu.Unlock()
		if held == n && p.cl.w.Buffered() == n*size {
			return
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("%d requests held and %d bytes queued, want %d and %d", held, p.cl.w.Buffered(), n, n*size)
		}
	}
}

func done(t *testing.T, calls ...<-chan callResult) {
	t.Helper()
	for _, c := range calls {
		select {
		case r := <-c:
			if r.err != nil {
				t.Fatal(r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("an answered call did not return")
		}
	}
}

// unpaidBurst leaves p with two slow requests on the wire and a burst
// of two answers whose callers do not ask again: the next request is
// held. It returns the slow requests' calls and sequence IDs.
func (p *wavePeer) unpaidBurst() ([]<-chan callResult, []uint64) {
	p.t.Helper()
	slow := []<-chan callResult{p.call(context.Background()), p.call(context.Background())}
	s := p.await(2)
	a, b := p.call(context.Background()), p.call(context.Background())
	p.answer(p.await(2)...)
	done(p.t, a, b)
	return slow, s
}

// TestWaveLeavesInOneWrite: k callers answered in one burst, each of
// which asks again, reach the peer in one write.
func TestWaveLeavesInOneWrite(t *testing.T) {
	const k = 8
	p := newWavePeer(t)
	slow := p.call(context.Background())
	s := p.await(1)[0]

	var wg sync.WaitGroup
	errs := make(chan error, 2*k)
	for range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2 {
				if _, err := p.cl.EstimateBytes(context.Background(), waveBody); err != nil {
					errs <- err
				}
			}
		}()
	}
	first := p.await(k)
	before := len(p.writes())
	p.answer(first...)
	second := p.await(k)
	if w := p.writes()[before:]; len(w) != 1 || w[0] != k {
		t.Fatalf("%d callers asking again after one burst took writes of %v frames, want one of %d", k, w, k)
	}

	p.answer(append(second, s)...)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	done(t, slow)
}

// TestWaveLoneRequestAtOnce: a request is written at once when no other
// is on the wire, including right after a burst that left answers
// unpaid.
func TestWaveLoneRequestAtOnce(t *testing.T) {
	p := newWavePeer(t)
	a := p.call(context.Background())
	first := p.await(1)
	if w := p.writes(); len(w) != 1 || w[0] != 1 {
		t.Fatalf("a lone request took writes of %v frames", w)
	}
	b := p.call(context.Background())
	p.answer(append(first, p.await(1)...)...) // a burst of two, and nothing left on the wire
	done(t, a, b)

	c := p.call(context.Background()) // leaves one answer unpaid, but nothing would release it
	p.answer(p.await(1)...)
	done(t, c)
}

// TestWaveHoldEnds: a held request leaves with the request that pays
// the burst off, or with the next burst; a burst that finds the one
// before it unpaid turns holding off until a wave is paid in full.
func TestWaveHoldEnds(t *testing.T) {
	p := newWavePeer(t)
	slow, s := p.unpaidBurst()

	r := p.call(context.Background())
	p.held(1)
	before := len(p.writes())
	q := p.call(context.Background()) // pays the burst's last answer
	rq := p.await(2)
	if w := p.writes()[before:]; len(w) != 1 || w[0] != 2 {
		t.Fatalf("the held request and the one that paid the burst off took writes of %v frames, want one of 2", w)
	}

	p.answer(rq...) // paid in full: the next burst holds again
	done(t, r, q)
	r2 := p.call(context.Background())
	p.held(1)
	p.answer(s...) // the next burst, arriving with that one unpaid, lets r2 go
	done(t, slow...)
	r2seq := p.await(1)[0]

	// r2 is on the wire and the last burst's two answers are unpaid, but
	// holding is off.
	r3 := p.call(context.Background())
	r3seq := p.await(1)[0]
	p.answer(r2seq, r3seq)
	done(t, r2, r3)
}

// TestWaveHeldCallerCancels: a held caller gives up on its context; its
// request still leaves with the wave, and its answer is dropped.
func TestWaveHeldCallerCancels(t *testing.T) {
	p := newWavePeer(t)
	slow, s := p.unpaidBurst()

	ctx, cancel := context.WithCancel(context.Background())
	r := p.call(ctx)
	p.held(1)
	cancel()
	select {
	case res := <-r:
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("canceled held call returned %q, %v", res.body, res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled held call did not return")
	}

	q := p.call(context.Background())
	p.answer(p.await(2)...)
	p.answer(s...)
	done(t, append(slow, q)...)
}

// TestWaveConnLostFailsHeld: held callers fail with ErrConnLost when the
// connection goes.
func TestWaveConnLostFailsHeld(t *testing.T) {
	p := newWavePeer(t)
	slow, _ := p.unpaidBurst()
	r := p.call(context.Background())
	p.held(1)
	p.srv.Close()
	for _, c := range append(slow, r) {
		select {
		case res := <-c:
			if !errors.Is(res.err, ErrConnLost) {
				t.Fatalf("call on a lost connection returned %q, %v", res.body, res.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("call on a lost connection did not return")
		}
	}
}
