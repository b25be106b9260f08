package stream

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// outcomes is a Callback that records every outcome it is handed.
type outcomes struct {
	mu   sync.Mutex
	got  []result
	more chan struct{}
}

func newOutcomes() *outcomes { return &outcomes{more: make(chan struct{}, 1024)} }

func (o *outcomes) Complete(body []byte, err error) {
	o.mu.Lock()
	o.got = append(o.got, result{body, err})
	o.mu.Unlock()
	o.more <- struct{}{}
}

func (o *outcomes) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.got)
}

// wait waits for n outcomes in all and returns them.
func (o *outcomes) wait(t *testing.T, n int) []result {
	t.Helper()
	for o.count() < n {
		select {
		case <-o.more:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d callbacks called", o.count(), n)
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]result(nil), o.got...)
}

// TestStartCallsBackOnce: a request sent with Start is handed to its
// callback with its answer, or with the server's error, once; one taken
// back with Cancel is not, and its late answer is dropped.
func TestStartCallsBackOnce(t *testing.T) {
	p := newWavePeer(t)
	o := newOutcomes()
	if _, err := p.cl.Start(waveBody, o); err != nil {
		t.Fatal(err)
	}
	cancelled, err := p.cl.Start(waveBody, o)
	if err != nil {
		t.Fatal(err)
	}
	seqs := p.await(2)
	if !p.cl.Cancel(cancelled) {
		t.Fatal("Cancel did not take back a request nothing had answered")
	}
	p.answer(seqs...)
	if _, err := p.cl.Start(waveBody, o); err != nil {
		t.Fatal(err)
	}
	shed, err := AppendFrame(nil, ErrorFrame(p.await(1)[0], "router overloaded", "unavailable"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.srv.Write(shed); err != nil {
		t.Fatal(err)
	}

	got := o.wait(t, 2)
	var se *Error
	if len(got) != 2 || !bytes.Equal(got[0].body, waveAnswer) || got[0].err != nil ||
		!errors.As(got[1].err, &se) || se.Code != "unavailable" || got[1].body != nil {
		t.Fatalf("callbacks got %+v, want the answer and then the unavailable error", got)
	}
	if p.cl.Cancel(cancelled) {
		t.Fatal("Cancel took back a request twice")
	}
	p.cl.Close()
	time.Sleep(10 * time.Millisecond)
	if n := o.count(); n != 2 {
		t.Fatalf("%d callbacks after the close, want the 2 answered", n)
	}
}

// TestStartNeverWaitsForRoom: against a peer that reads nothing, Start
// fails with ErrQueueFull once the write queue is at its bound — also
// while a blocking call waits for room — and a Start that failed is
// never called back. Every other request fails with the connection.
func TestStartNeverWaitsForRoom(t *testing.T) {
	cc, srv := net.Pipe() // the peer never reads: the writer's first write blocks for good
	cl := newClient(cc)
	t.Cleanup(func() { cl.Close(); srv.Close() })
	body := bytes.Repeat([]byte{'x'}, 16<<10)
	o := newOutcomes()
	if _, err := cl.Start(body, o); err != nil {
		t.Fatal(err)
	}
	for cl.w.Buffered() != 0 { // until the writer holds it, stuck in its write
		time.Sleep(time.Millisecond)
	}
	started := 1
	for {
		_, err := cl.Start(body, o)
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if started++; started > 2*maxPending/len(body) {
			t.Fatalf("%d requests queued to a peer that reads nothing", started)
		}
	}

	blocked := make(chan error, 1)
	go func() {
		_, err := cl.EstimateBytes(context.Background(), body)
		blocked <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it wait for room
	refused := make(chan error, 1)
	go func() {
		_, err := cl.Start(body, o)
		refused <- err
	}()
	select {
	case err := <-refused:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("Start on a full queue returned %v, want ErrQueueFull", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Start waited behind a call waiting for room")
	}

	cl.Close()
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("the call waiting for room returned %v, want ErrConnLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the call waiting for room did not return on Close")
	}
	got := o.wait(t, started)
	for _, r := range got {
		if !errors.Is(r.err, ErrConnLost) {
			t.Fatalf("a started request completed with %v, want ErrConnLost", r.err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if n := o.count(); n != started {
		t.Fatalf("%d callbacks for %d started requests", n, started)
	}
}
