package serve_test

import (
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// slowHandler parks every request until its context is canceled (or a
// far-off timer fires), tracking how many handlers are in flight and
// whether the park ended by cancellation — the shape of a handler
// wedged inside the service when a drain deadline expires.
type slowHandler struct {
	inflight atomic.Int64
	canceled atomic.Int64
}

func (h *slowHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.inflight.Add(1)
	defer h.inflight.Add(-1)
	select {
	case <-r.Context().Done():
		h.canceled.Add(1)
	case <-time.After(30 * time.Second):
		io.WriteString(w, "too late")
	}
}

func startTestServer(t *testing.T, h http.Handler) (*http.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// TestDrainHTTPForcesCloseOnDeadline: with a deliberately slow handler
// still running when the drain deadline expires, DrainHTTP must report
// the forced close, actually sever the connection (the client's read
// fails rather than hanging), and cancel the parked handler's context,
// so the handler does not run on into the teardown that follows.
func TestDrainHTTPForcesCloseOnDeadline(t *testing.T) {
	h := &slowHandler{}
	srv, addr := startTestServer(t, h)

	// Issue a request that parks in the handler, on a raw connection so
	// the eventual force-close is observable as a read failure.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /slow HTTP/1.1\r\nHost: test\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler never started")
		}
		time.Sleep(time.Millisecond)
	}

	if err := serve.DrainHTTP(srv, 50*time.Millisecond); err == nil {
		t.Fatal("DrainHTTP reported a clean drain with a handler still parked")
	}

	// The force-close must sever the connection: the client's read ends
	// (EOF or reset) instead of waiting out the handler's 30s park. A
	// read-deadline timeout here means the connection is still open.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, rerr := conn.Read(make([]byte, 1))
	if rerr == nil {
		_, rerr = io.ReadAll(conn)
	}
	if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection still open after forced drain")
	}

	// And the parked handler must have seen its context cancel.
	deadline = time.Now().Add(5 * time.Second)
	for h.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler context never canceled by forced close")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainHTTPCleanWhenIdle pins the happy path: no in-flight
// requests means a clean, unforced drain well inside the deadline.
func TestDrainHTTPCleanWhenIdle(t *testing.T) {
	srv, addr := startTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if err := serve.DrainHTTP(srv, 5*time.Second); err != nil {
		t.Fatalf("idle server drain forced a close: %v", err)
	}
}
