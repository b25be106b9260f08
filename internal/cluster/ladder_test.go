package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
)

// newHTTPReplica is a replica started without a stream listener: its
// /healthz advertises no stream address, so the router reaches it over
// HTTP only.
func newHTTPReplica(t testing.TB, reg *serve.Registry) *testReplica {
	t.Helper()
	setup(t)
	svc := serve.New(serve.Options{Registry: reg})
	tr := &testReplica{svc: svc, hs: httptest.NewServer(svc.Handler())}
	t.Cleanup(tr.kill)
	return tr
}

func batchBody(t testing.TB, schema string, plans []*plan.Plan) []byte {
	t.Helper()
	var plansJSON []json.RawMessage
	for _, p := range plans {
		pj, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		plansJSON = append(plansJSON, pj)
	}
	body, err := json.Marshal(map[string]any{"schema": schema, "resource": "cpu", "plans": plansJSON})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// refusal is an error answer as the client sees it: status, the
// Retry-After and X-Request-ID headers, and the one envelope the body
// holds.
type refusal struct {
	status     int
	retryAfter string
	requestID  string
	Code       string `json:"code"`
	Error      string `json:"error"`
	RequestID  string `json:"request_id"`
}

// postRefused posts body to url+path with the client's X-Request-ID
// when id is not empty, and decodes the error envelope it must get
// back — exactly one JSON object.
func postRefused(t *testing.T, url, path, id string, body []byte) refusal {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	r := refusal{
		status:     resp.StatusCode,
		retryAfter: resp.Header.Get("Retry-After"),
		requestID:  resp.Header.Get("X-Request-ID"),
	}
	if r.status == http.StatusOK {
		t.Fatalf("POST %s answered 200, want a refusal: %s", path, out)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	if err := dec.Decode(&r); err != nil || dec.More() {
		t.Fatalf("POST %s: status %d with a body that is not one error envelope: %s", path, r.status, out)
	}
	return r
}

// TestRouterHTTPEstimateFallback pins the estimate path to a replica
// that advertises no stream listener: the router posts the body to the
// replica's POST /estimate, and both router surfaces answer as the
// replica itself does — the same bytes for a 200, the same status, code
// and message for a refusal.
func TestRouterHTTPEstimateFallback(t *testing.T) {
	setup(t)
	reg := serve.NewRegistry()
	reg.Publish("tpch", cpuEst)
	rep := newHTTPReplica(t, reg)
	rt, rhs := newRouter(t, []*testReplica{rep}, func(o *cluster.Options) { o.CacheEntries = -1 })
	raddr, err := rt.StartStream("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := stream.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// The plan's operators are in the prediction cache before any body
	// is sent, so a computed answer and a replayed one are the same bytes.
	if _, err := rep.svc.Estimate(context.Background(),
		serve.Request{Schema: "tpch", Resource: plan.CPUTime, Plan: testPlans[0]}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"known schema", estimateBody(t, "tpch", testPlans[0], "cpu"), http.StatusOK, ""},
		{"unknown schema", estimateBody(t, "nosuch", testPlans[0], "cpu"), http.StatusNotFound, "unknown_schema"},
	} {
		want := httpAnswer(t, rep.hs.URL, c.body)
		if want.status != c.status || want.code != c.code {
			t.Fatalf("%s: the replica answered %v, want status %d code %q", c.name, want, c.status, c.code)
		}
		if got := httpAnswer(t, rhs.URL, c.body); got != want {
			t.Errorf("%s: router HTTP answered %v; the replica answered %v", c.name, got, want)
		}
		if got := streamAnswer(t, cl, c.body); got != want {
			t.Errorf("%s: router stream answered %v; the replica answered %v", c.name, got, want)
		}
	}
	if m := rt.Metrics(); m.Replicas[0].Requests != 4 || m.Replicas[0].Errors != 0 {
		t.Errorf("replica counters %+v, want 4 requests forwarded and no errors", m.Replicas[0])
	}
}

// TestRouterRelaysReplicaRefusals pins how the router answers a
// replica's refusal over HTTP. One without an envelope is 500 internal
// on both router surfaces, whatever status the replica used; a
// replica's own 503 unavailable reaches the client with Retry-After: 1,
// forwarded or proxied.
func TestRouterRelaysReplicaRefusals(t *testing.T) {
	setup(t)
	body := estimateBody(t, "tpch", testPlans[0], "cpu")

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /estimate", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream gone", http.StatusBadGateway)
	})
	bare := httptest.NewServer(mux)
	defer bare.Close()
	rt, rhs := newRouter(t, []*testReplica{{hs: bare}}, nil)
	raddr, err := rt.StartStream("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := stream.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	want := answer{status: http.StatusInternalServerError, code: "internal", message: "replica error: 502 Bad Gateway"}
	if r := postRefused(t, rhs.URL, "/estimate", "", body); r.status != want.status || r.Code != want.code || r.Error != want.message {
		t.Errorf("router HTTP relayed a bare 502 as %d %s %q, want %v", r.status, r.Code, r.Error, want)
	}
	if got := streamAnswer(t, cl, body); got != want {
		t.Errorf("router stream relayed a bare 502 as %v, want %v", got, want)
	}

	reg := serve.NewRegistry()
	reg.Publish("tpch", cpuEst)
	rep := newHTTPReplica(t, reg)
	_, rhs = newRouter(t, []*testReplica{rep}, func(o *cluster.Options) { o.CacheEntries = -1 })
	rep.svc.Close() // its HTTP listener stays up, answering 503 unavailable
	for _, c := range []struct {
		path string
		body []byte
	}{
		{"/estimate", body},
		{"/estimate/batch", batchBody(t, "tpch", testPlans[:1])},
	} {
		r := postRefused(t, rhs.URL, c.path, "", c.body)
		if r.status != http.StatusServiceUnavailable || r.Code != "unavailable" || r.retryAfter != "1" {
			t.Errorf("%s on a closed replica: status %d code %q Retry-After %q, want 503 unavailable 1",
				c.path, r.status, r.Code, r.retryAfter)
		}
	}
}

// TestRouterFailoverMidRequest pins the failover ladder both routed
// paths share. A replica that dies between polls fails the request sent
// to it at once; it is marked down on the spot and the request is
// answered by its version-consistent successor within a second. With
// no replica left the router sheds with one 503 envelope.
func TestRouterFailoverMidRequest(t *testing.T) {
	setup(t)
	for _, c := range []struct {
		name, path string
		body       []byte
	}{
		{"estimate", "/estimate", estimateBody(t, "tpch", testPlans[0], "cpu")},
		{"batch", "/estimate/batch", batchBody(t, "tpch", testPlans[:2])},
	} {
		t.Run(c.name, func(t *testing.T) {
			// One registry: the two replicas carry one version token, so
			// the survivor is a version-consistent successor.
			reg := serve.NewRegistry()
			reg.Publish("", cpuEst)
			fleet := []*testReplica{newTestReplicaWith(t, reg), newTestReplicaWith(t, reg)}
			rt, rhs := newRouter(t, fleet, func(o *cluster.Options) { o.CacheEntries = -1 })

			before := replicaRequests(rt)
			postOK(t, rhs.URL, c.path, c.body)
			var primary, successor *testReplica
			for _, rep := range fleet {
				if replicaRequests(rt)[rep.hs.URL] > before[rep.hs.URL] {
					primary = rep
				} else {
					successor = rep
				}
			}
			if primary == nil || successor == nil {
				t.Fatalf("one request reached %v replicas, want exactly one", replicaRequests(rt))
			}
			replica := func(rep *testReplica) cluster.ReplicaMetrics {
				for _, r := range rt.Metrics().Replicas {
					if r.Name == rep.hs.URL {
						return r
					}
				}
				t.Fatalf("no metrics for replica %s", rep.hs.URL)
				return cluster.ReplicaMetrics{}
			}

			primary.kill() // no PollNow: the router still believes it healthy
			start := time.Now()
			postOK(t, rhs.URL, c.path, c.body)
			if d := time.Since(start); d > time.Second {
				t.Errorf("the successor answered after %v, want under 1s", d)
			}
			if r := replica(primary); r.Healthy || r.Errors < 1 {
				t.Errorf("killed replica after a failed forward: %+v, want unhealthy with errors >= 1", r)
			}
			m := rt.Metrics()
			if m.Decisions.Spillover < 1 {
				t.Errorf("the successor's answer was not counted as spillover: %+v", m.Decisions)
			}
			if m.Decisions.Shed != 0 {
				t.Errorf("failover shed %d requests, want 0", m.Decisions.Shed)
			}

			successor.kill()
			r := postRefused(t, rhs.URL, c.path, "", c.body)
			if r.status != http.StatusServiceUnavailable || r.Code != "unavailable" || r.retryAfter != "1" {
				t.Errorf("with no replica left: status %d code %q Retry-After %q, want 503 unavailable 1",
					r.status, r.Code, r.retryAfter)
			}
			if shed := rt.Metrics().Decisions.Shed; shed != 1 {
				t.Errorf("%d sheds counted, want 1", shed)
			}
			if r := replica(successor); r.Healthy || r.Errors < 1 {
				t.Errorf("second killed replica: %+v, want unhealthy with errors >= 1", r)
			}
		})
	}
}

// TestRouterReapedStreamFallsBackToHTTP pins what a lost pool
// connection costs when the replica itself is fine: nothing. The
// replica's stream listener reaps the router's idle connections; the
// next request is answered by the same replica over POST /estimate —
// no spillover, no error, the replica still healthy — and once a poll
// has replaced the connections the request after goes over the stream
// again.
func TestRouterReapedStreamFallsBackToHTTP(t *testing.T) {
	setup(t)
	reg := serve.NewRegistry()
	reg.Publish("", cpuEst)
	reap := stream.Options{IdleTimeout: 50 * time.Millisecond}
	fleet := []*testReplica{newTestReplicaStream(t, reg, reap), newTestReplicaStream(t, reg, reap)}
	rt, rhs := newRouter(t, fleet, func(o *cluster.Options) { o.CacheEntries = -1 })
	body := estimateBody(t, "tpch", testPlans[0], "cpu")

	before := replicaRequests(rt)
	postOK(t, rhs.URL, "/estimate", body)
	var primary *testReplica
	for _, rep := range fleet {
		if replicaRequests(rt)[rep.hs.URL] > before[rep.hs.URL] {
			primary = rep
		}
	}
	if primary == nil {
		t.Fatal("no replica answered the first request")
	}
	for deadline := time.Now().Add(5 * time.Second); primary.ss.Stats().Open != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the primary's pool connections were not reaped: %+v", primary.ss.Stats())
		}
	}

	streamed := primary.ss.Stats().Requests
	before = replicaRequests(rt)
	postOK(t, rhs.URL, "/estimate", body)
	after := replicaRequests(rt)
	for _, rep := range fleet {
		want := before[rep.hs.URL]
		if rep == primary {
			want++
		}
		if after[rep.hs.URL] != want {
			t.Errorf("replica %s forwarded %d requests, want %d", rep.hs.URL, after[rep.hs.URL], want)
		}
	}
	m := rt.Metrics()
	if m.Decisions.Spillover != 0 || m.Decisions.Shed != 0 {
		t.Errorf("decisions %+v after a reaped connection, want no spillover and no shed", m.Decisions)
	}
	for _, r := range m.Replicas {
		if !r.Healthy || r.Errors != 0 {
			t.Errorf("replica %+v after a reaped connection, want healthy with no errors", r)
		}
	}
	if n := primary.ss.Stats().Requests; n != streamed {
		t.Errorf("the primary's stream listener took %d requests after the reap, want none", n-streamed)
	}

	rt.PollNow()
	postOK(t, rhs.URL, "/estimate", body)
	if n := primary.ss.Stats().Requests; n != streamed+1 {
		t.Errorf("after a poll, the primary's stream listener took %d requests, want 1", n-streamed)
	}
}

// TestRouterRequestIDThroughProxy pins the one request ID a request
// carries through the tier: the client's X-Request-ID, or the one the
// router mints, is the ID on the router's response and the ID in the
// replica's error envelope — and in an envelope the router writes
// itself.
func TestRouterRequestIDThroughProxy(t *testing.T) {
	rt, rhs := newRouter(t, []*testReplica{newTestReplica(t)}, func(o *cluster.Options) { o.MaxInflight = 1 })
	bad := []byte(`{"schema":"tpch","resource":"cpu","plans":[null]}`)

	check := func(what, id string, wantStatus int) {
		t.Helper()
		r := postRefused(t, rhs.URL, "/estimate/batch", id, bad)
		if r.status != wantStatus {
			t.Fatalf("%s: status %d (%s %q), want %d", what, r.status, r.Code, r.Error, wantStatus)
		}
		if r.requestID == "" || r.RequestID != r.requestID {
			t.Errorf("%s: X-Request-ID %q, envelope request_id %q: want one ID", what, r.requestID, r.RequestID)
		}
		if id != "" && r.requestID != id {
			t.Errorf("%s: X-Request-ID %q, want the client's %q", what, r.requestID, id)
		}
	}
	check("replica refusal, client ID", "client-7", http.StatusBadRequest)
	check("replica refusal, minted ID", "", http.StatusBadRequest)

	release, ok := rt.Admit("holder") // the one admission slot
	if !ok {
		t.Fatal("the first admission was refused")
	}
	defer release()
	check("router shed, client ID", "client-8", http.StatusServiceUnavailable)
	check("router shed, minted ID", "", http.StatusServiceUnavailable)
}

// newSlowReplica is newHTTPReplica whose answers on path take 300 ms,
// unless the request ends first.
func newSlowReplica(t testing.TB, reg *serve.Registry, path string) *testReplica {
	t.Helper()
	setup(t)
	svc := serve.New(serve.Options{Registry: reg})
	h := svc.Handler()
	tr := &testReplica{svc: svc, hs: httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == path {
			select {
			case <-time.After(300 * time.Millisecond):
			case <-r.Context().Done():
			}
		}
		h.ServeHTTP(w, r)
	}))}
	t.Cleanup(tr.kill)
	return tr
}

// abandoned posts body to rt's HTTP surface under a client deadline of
// 50 ms, which must pass before the answer comes, and returns once the
// router's handler has returned too.
func abandoned(t *testing.T, rt *cluster.Router, path string, body []byte) {
	t.Helper()
	done := make(chan struct{}, 1)
	h := rt.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() { done <- struct{}{} }()
		h.ServeHTTP(w, r)
	}))
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("POST %s answered %s within the client's deadline, want the deadline to pass first", path, resp.Status)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("the router's handler for POST %s still running 5 s after its client gave up", path)
	}
}

// blameless fails unless every replica of rt is healthy with no errors
// counted.
func blameless(t *testing.T, rt *cluster.Router, what string) {
	t.Helper()
	for _, r := range rt.Metrics().Replicas {
		if !r.Healthy || r.Errors != 0 {
			t.Errorf("%s: replica %+v, want healthy with no errors", what, r)
		}
	}
}

// TestRouterDeadlineBlamesNoReplica: a client whose deadline passes
// while both replicas are still working on its proxied batch ended its
// own request. Neither replica is marked down or charged an error,
// nothing is counted as a routing decision or a shed, and the next
// request is answered.
func TestRouterDeadlineBlamesNoReplica(t *testing.T) {
	setup(t)
	reg := serve.NewRegistry()
	reg.Publish("", cpuEst)
	fleet := []*testReplica{newSlowReplica(t, reg, "/estimate/batch"), newSlowReplica(t, reg, "/estimate/batch")}
	rt, rhs := newRouter(t, fleet, func(o *cluster.Options) { o.CacheEntries = -1 })
	body := batchBody(t, "tpch", testPlans[:2])

	abandoned(t, rt, "/estimate/batch", body)
	blameless(t, rt, "after the client's deadline passed")
	if d := rt.Metrics().Decisions; d != (cluster.DecisionMetrics{}) {
		t.Errorf("decisions after a request its client gave up: %+v, want none", d)
	}
	postOK(t, rhs.URL, "/estimate/batch", body)
}

// TestRouterFanoutCancelBlamesNoReplica: a model fan-out whose client
// gives up after the first replica has answered and while the second
// is working leaves both in rotation with no errors counted.
func TestRouterFanoutCancelBlamesNoReplica(t *testing.T) {
	setup(t)
	reg := serve.NewRegistry()
	reg.Publish("", cpuEst)
	fleet := []*testReplica{newHTTPReplica(t, reg), newSlowReplica(t, reg, "/models/rollback")}
	rt, _ := newRouter(t, fleet, nil)

	abandoned(t, rt, "/models/rollback", []byte(`{"resource":"cpu"}`))
	blameless(t, rt, "after a fan-out its client gave up")
	if m := rt.Metrics(); m.Replicas[0].Requests != 1 || m.Replicas[1].Requests != 0 {
		t.Errorf("replica requests %d and %d, want the first replica's answer counted and nothing for the second",
			m.Replicas[0].Requests, m.Replicas[1].Requests)
	}
}
