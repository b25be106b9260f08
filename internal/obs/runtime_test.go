package obs

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestDebugServerTimeoutDefaults pins the lifecycle bugfix: the debug
// listener must reap idle keep-alive connections and bound response
// writes, while leaving WriteTimeout generous enough for streaming
// pprof profiles.
func TestDebugServerTimeoutDefaults(t *testing.T) {
	ds, err := StartDebugServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.srv.IdleTimeout <= 0 {
		t.Fatal("IdleTimeout unset: idle clients pin connections forever")
	}
	if ds.srv.WriteTimeout < time.Minute {
		t.Fatalf("WriteTimeout %v too small for a 30s pprof profile stream", ds.srv.WriteTimeout)
	}
	if ds.srv.ReadHeaderTimeout <= 0 {
		t.Fatal("ReadHeaderTimeout unset")
	}
}

// TestDebugServerReapsIdleConnection drives a raw keep-alive connection
// through one request, then verifies the server closes it once it sits
// idle past IdleTimeout.
func TestDebugServerReapsIdleConnection(t *testing.T) {
	ds, err := startDebugServerWith("127.0.0.1:0", nil, debugServerOptions{
		IdleTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	conn, err := net.Dial("tcp", ds.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := fmt.Sprintf("GET /debug/pprof/cmdline HTTP/1.1\r\nHost: %s\r\n\r\n", ds.Addr())
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Close {
		t.Fatal("server refused keep-alive; idle-reap test needs a persistent connection")
	}

	// The connection is now idle. The server must close it within
	// IdleTimeout (plus slack); a read then returns EOF.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection read = %v, want EOF (reaped by server)", err)
	}
}
