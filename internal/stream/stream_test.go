package stream_test

// Tests for the streaming transport: wire responses byte-identical to
// POST /estimate (the transport's core contract), per-request error
// envelopes that never poison a batch, cross-connection coalescing,
// idle reaping, and — under -race — many streaming clients against a
// concurrent model hot-swap.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

var (
	setupOnce sync.Once
	cpuEst    *core.Estimator
	ioEst     *core.Estimator
	testPlans []*plan.Plan
)

// setup trains one small CPU and one small I/O estimator and keeps a
// held-out plan set. Estimators are immutable, so sharing across tests
// is safe even under -race.
func setup(t testing.TB) {
	t.Helper()
	setupOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.N = 64
		cfg.Seed = 7
		qs := workload.GenTPCH(cfg)
		eng := engine.New(nil)
		plans := make([]*plan.Plan, len(qs))
		for i, q := range qs {
			eng.Run(q.Plan)
			plans[i] = q.Plan
		}
		cut := len(plans) * 3 / 4
		ccfg := core.DefaultConfig()
		ccfg.Mart.Iterations = 40
		var err error
		cpuEst, err = core.Train(plans[:cut], plan.CPUTime, nil, ccfg)
		if err != nil {
			panic(err)
		}
		ioEst, err = core.Train(plans[:cut], plan.LogicalIO, nil, ccfg)
		if err != nil {
			panic(err)
		}
		testPlans = plans[cut:]
	})
}

// newStream builds a service with both estimators published on the
// wildcard schema and a stream listener in front of it.
func newStream(t testing.TB, sopts serve.Options, topts stream.Options) (*serve.Service, *stream.Server) {
	t.Helper()
	setup(t)
	svc := serve.New(sopts)
	t.Cleanup(svc.Close)
	svc.Registry().Publish("", cpuEst)
	svc.Registry().Publish("", ioEst)
	topts.Service = svc
	srv, err := stream.Start("127.0.0.1:0", topts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return svc, srv
}

func dial(t testing.TB, srv *stream.Server) *stream.Client {
	t.Helper()
	cl, err := stream.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func planJSON(t testing.TB, p *plan.Plan) json.RawMessage {
	t.Helper()
	b, err := plan.EncodeJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// selfJoinPlan is a five-operator plan whose two scans are one
// (operator, feature vector) pair: the same table read twice under one
// join — the one input shape where how a path counts cache probes
// shows.
func selfJoinPlan() *plan.Plan {
	scan := func() *plan.Node {
		n := plan.NewLeaf(plan.TableScan, "orders")
		n.TableRows, n.TablePages, n.TableCols = 1.5e6, 3e4, 9
		n.Out = plan.Cardinality{Rows: 1.5e6, Width: 64}
		n.EstOut = n.Out
		return n
	}
	join := plan.NewJoin(plan.MergeJoin, scan(), scan())
	join.Out = plan.Cardinality{Rows: 1.5e6, Width: 128}
	agg := plan.NewUnary(plan.HashAggregate, join)
	agg.Out = plan.Cardinality{Rows: 1.5e4, Width: 32}
	top := plan.NewUnary(plan.Sort, agg)
	top.Out = agg.Out
	join.EstOut, agg.EstOut, top.EstOut = join.Out, agg.Out, top.Out
	return plan.New(top, "self-join")
}

// TestStreamMatchesHTTPBitIdentical pins the transport's core
// contract: the stream response payload is byte-for-byte the POST
// /estimate response body for the same request — single- and
// multi-resource, across several plans, cache counters included: on a
// warm cache, and for a plan that repeats an operator on a cold one
// too.
func TestStreamMatchesHTTPBitIdentical(t *testing.T) {
	svc, srv := newStream(t, serve.Options{}, stream.Options{})
	httpSrv := httptest.NewServer(svc.Handler())
	t.Cleanup(httpSrv.Close)
	cl := dial(t, srv)

	reqs := []*stream.Request{
		{Resource: "cpu", Plan: planJSON(t, testPlans[0])},
		{Resource: "io", Plan: planJSON(t, testPlans[1])},
		{Resources: []string{"cpu", "io"}, Plan: planJSON(t, testPlans[2])},
		{Resources: []string{"all"}, Plan: planJSON(t, testPlans[3%len(testPlans)])},
	}
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		// Twice over HTTP: the second hits a fully warm cache.
		var httpBody []byte
		for k := 0; k < 2; k++ {
			resp, err := http.Post(httpSrv.URL+"/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			httpBody, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: HTTP status %d: %s", i, resp.StatusCode, httpBody)
			}
		}
		got, err := cl.EstimateRaw(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: stream estimate: %v", i, err)
		}
		if !bytes.Equal(got, httpBody) {
			t.Fatalf("request %d: stream response differs from /estimate body\nstream: %s\nhttp:   %s",
				i, got, httpBody)
		}
	}

	// The self-join, first cold — a service per transport, neither has
	// seen the plan, one registry so the model header agrees — then warm.
	reg := serve.NewRegistry()
	coldHTTP, _ := newStream(t, serve.Options{Registry: reg}, stream.Options{})
	_, coldStream := newStream(t, serve.Options{Registry: reg}, stream.Options{})
	coldSrv := httptest.NewServer(coldHTTP.Handler())
	t.Cleanup(coldSrv.Close)
	coldCl := dial(t, coldStream)
	req := &stream.Request{Resources: []string{"all"}, Plan: planJSON(t, selfJoinPlan())}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, serving := range []string{"cold", "warm"} {
		resp, err := http.Post(coldSrv.URL+"/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		httpBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s self-join: HTTP status %d: %s (%v)", serving, resp.StatusCode, httpBody, err)
		}
		got, err := coldCl.EstimateRaw(context.Background(), req)
		if err != nil {
			t.Fatalf("%s self-join: stream estimate: %v", serving, err)
		}
		if !bytes.Equal(got, httpBody) {
			t.Fatalf("%s self-join: stream response differs from /estimate body\nstream: %s\nhttp:   %s",
				serving, got, httpBody)
		}
	}
}

// TestStreamHandlerKeepsNothingOfBody: the listener reads frames in
// place, so a request's bytes are overwritten by the next read while
// its plan may still be waiting in the micro-batcher. With every body
// scribbled over the moment the handler returns, eight callers
// pipelining on one connection — several frames per read, dispatches
// long after their frames are gone — still get the /estimate bytes,
// and a request the server refuses still gets its own error.
func TestStreamHandlerKeepsNothingOfBody(t *testing.T) {
	t.Cleanup(stream.ScribbleAfterHandle())
	svc, srv := newStream(t, serve.Options{}, stream.Options{})
	httpSrv := httptest.NewServer(svc.Handler())
	t.Cleanup(httpSrv.Close)
	cl := dial(t, srv)

	reqs := []*stream.Request{
		{Schema: "tpch", Resource: "cpu", Plan: planJSON(t, testPlans[0])},
		{Resource: "io", Plan: planJSON(t, testPlans[1])},
		{Resources: []string{"cpu", "io"}, Plan: planJSON(t, testPlans[2])},
		{Resources: []string{"all"}, Plan: planJSON(t, selfJoinPlan()), TimeoutMS: 5000},
	}
	bodies, want := make([][]byte, len(reqs)), make([][]byte, len(reqs))
	for i, req := range reqs {
		var err error
		if bodies[i], err = json.Marshal(req); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ { // the second answer is the warm one
			resp, err := http.Post(httpSrv.URL+"/estimate", "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				t.Fatal(err)
			}
			want[i], err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: HTTP status %d: %s (%v)", i, resp.StatusCode, want[i], err)
			}
		}
	}

	const callers, rounds = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				i := (g + k) % len(reqs)
				got, err := cl.EstimateBytes(context.Background(), bodies[i])
				if err != nil || !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("caller %d round %d request %d: %v\nstream: %s\nhttp:   %s", g, k, i, err, got, want[i])
					return
				}
				_, err = cl.EstimateBytes(context.Background(), []byte(`{"resource":"gpu","plan":{}}`))
				var se *stream.Error
				if !errors.As(err, &se) || se.Code != "unknown_resource" {
					errs <- fmt.Errorf("caller %d round %d: refused request answered %v", g, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamDecodedResponse checks the convenience decoder: totals are
// positive, finite, and exactly the sum of operator estimates.
func TestStreamDecodedResponse(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{})
	cl := dial(t, srv)
	resp, err := cl.Estimate(context.Background(), &stream.Request{
		Resource: "cpu", Plan: planJSON(t, testPlans[0]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(resp.Total > 0) || math.IsInf(resp.Total, 0) {
		t.Fatalf("total = %v", resp.Total)
	}
	var sum float64
	for _, op := range resp.Operators {
		sum += op.Estimate
	}
	if resp.Total != sum {
		t.Fatalf("total %v != operator sum %v", resp.Total, sum)
	}
	if resp.CacheHits+resp.CacheMisses != len(resp.Operators) {
		t.Fatalf("cache counters %d+%d don't cover %d operators",
			resp.CacheHits, resp.CacheMisses, len(resp.Operators))
	}
}

// TestStreamErrorEnvelopes drives every per-request failure class over
// one connection and checks (a) the stable code, (b) the connection
// survives — a bad request answers its own sequence ID and never
// poisons the stream or a coalesced batch.
func TestStreamErrorEnvelopes(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{})
	cl := dial(t, srv)
	ctx := context.Background()

	cases := []struct {
		name string
		req  *stream.Request
		code string
	}{
		{"unknown resource", &stream.Request{Resource: "gpu", Plan: planJSON(t, testPlans[0])}, "unknown_resource"},
		{"missing plan", &stream.Request{Resource: "cpu"}, "bad_request"},
		{"bad plan", &stream.Request{Resource: "cpu", Plan: json.RawMessage(`{"nodes": 12}`)}, "bad_plan"},
	}
	for _, tc := range cases {
		_, err := cl.EstimateRaw(ctx, tc.req)
		var se *stream.Error
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want *stream.Error", tc.name, err)
		}
		if se.Code != tc.code {
			t.Fatalf("%s: code = %q, want %q", tc.name, se.Code, tc.code)
		}
		// The connection must still serve valid requests.
		if _, err := cl.EstimateRaw(ctx, &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[0])}); err != nil {
			t.Fatalf("%s: connection dead after per-request error: %v", tc.name, err)
		}
	}
}

// TestPlanErrorsAcrossEntryPoints drives the three entry points that
// take a wire plan — the stream, POST /estimate and POST /observe —
// with the same plan value and requires one answer from all of them:
// a null plan is a missing plan, and a plan DecodeJSON rejects answers
// its decode error as bad_plan (the stream handler relies on that
// decode being the validation; it does not validate again). Then the
// same for the resources field over the three entry points that take
// one: the stream, POST /estimate and POST /estimate/batch.
func TestPlanErrorsAcrossEntryPoints(t *testing.T) {
	setup(t)
	loop, err := feedback.New(feedback.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loop.Close() })
	svc, srv := newStream(t, serve.Options{Feedback: loop}, stream.Options{})
	httpSrv := httptest.NewServer(svc.Handler())
	t.Cleanup(httpSrv.Close)
	cl := dial(t, srv)

	cases := []struct {
		name, plan, message, code string
	}{
		{"null plan", `null`, "missing plan", "bad_request"},
		{"invalid plan", `{"version":1,"root":{"kind":"Sort"}}`,
			"plan: decode: plan: node 0 (Sort) has 0 children, want 1", "bad_plan"},
		{"unknown operator", `{"version":1,"root":{"kind":"Exchange"}}`,
			`plan: decode: plan: unknown operator kind "Exchange"`, "unknown_operator"},
	}
	for _, tc := range cases {
		_, err := cl.EstimateRaw(context.Background(), &stream.Request{Resource: "cpu", Plan: json.RawMessage(tc.plan)})
		var se *stream.Error
		if !errors.As(err, &se) {
			t.Fatalf("%s: stream err = %v, want *stream.Error", tc.name, err)
		}
		if se.Message != tc.message || se.Code != tc.code {
			t.Errorf("%s: stream answered %q / %s, want %q / %s", tc.name, se.Message, se.Code, tc.message, tc.code)
		}
		for _, path := range []string{"/estimate", "/observe"} {
			resp, err := http.Post(httpSrv.URL+path, "application/json",
				strings.NewReader(`{"resource":"cpu","plan":`+tc.plan+`}`))
			if err != nil {
				t.Fatal(err)
			}
			var he stream.Error // the HTTP envelope has the same two fields
			err = json.NewDecoder(resp.Body).Decode(&he)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || he.Message != tc.message || he.Code != tc.code {
				t.Errorf("%s: %s answered %d %q / %s, want 400 %q / %s",
					tc.name, path, resp.StatusCode, he.Message, he.Code, tc.message, tc.code)
			}
		}
	}

	// The resources field is one type on every entry point that takes
	// it: the string forms select what the array forms select, and an
	// explicit empty set is an error, never the absent field's default.
	good := string(planJSON(t, testPlans[0]))
	for _, tc := range []struct {
		name, resources string
		want            string // "resources" in the answer; "" for a single-resource one
		message, code   string // of the refusal, when one is expected
	}{
		{"string all", `"all"`, `"resources":["cpu","io"]`, "", ""},
		{"string name", `"io"`, "", "", ""},
		{"array", `["io","cpu"]`, `"resources":["io","cpu"]`, "", ""},
		{"explicit empty set", `[]`, "", "serve: unknown resource: empty resource set", "unknown_resource"},
	} {
		single := `{"resources":` + tc.resources + `,"plan":` + good + `}`
		answers := map[string][]byte{}
		body, err := cl.EstimateBytes(context.Background(), []byte(single))
		var se *stream.Error
		switch {
		case errors.As(err, &se):
			answers["stream"], _ = json.Marshal(se)
		case err != nil:
			t.Fatalf("%s: stream: %v", tc.name, err)
		default:
			answers["stream"] = body
		}
		for path, body := range map[string]string{
			"/estimate":       single,
			"/estimate/batch": `{"resources":` + tc.resources + `,"plans":[` + good + `]}`,
		} {
			resp, err := http.Post(httpSrv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			answers[path], err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.code == ""; (resp.StatusCode == http.StatusOK) != want {
				t.Errorf("%s: %s answered %d: %s", tc.name, path, resp.StatusCode, answers[path])
			}
		}
		for entry, got := range answers {
			var e stream.Error
			if err := json.Unmarshal(got, &e); err != nil {
				t.Fatalf("%s: %s answered %q: %v", tc.name, entry, got, err)
			}
			if e.Message != tc.message || e.Code != tc.code {
				t.Errorf("%s: %s answered %q / %s, want %q / %s", tc.name, entry, e.Message, e.Code, tc.message, tc.code)
			}
			multi := bytes.Contains(got, []byte(`"resources":`))
			if tc.code == "" && (multi != (tc.want != "") || !bytes.Contains(got, []byte(tc.want))) {
				t.Errorf("%s: %s answered %s, want %q in it", tc.name, entry, got, tc.want)
			}
		}
	}
}

// TestStreamUnknownSchema exercises the batch-level failure path: the
// whole group shares routing, so a no-model schema fans the
// unknown_schema envelope back.
func TestStreamUnknownSchema(t *testing.T) {
	setup(t)
	svc := serve.New(serve.Options{})
	t.Cleanup(svc.Close)
	svc.Registry().Publish("tpch", cpuEst) // no wildcard
	srv, err := stream.Start("127.0.0.1:0", stream.Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := dial(t, srv)
	_, err = cl.EstimateRaw(context.Background(), &stream.Request{
		Schema: "other", Resource: "cpu", Plan: planJSON(t, testPlans[0]),
	})
	var se *stream.Error
	if !errors.As(err, &se) || se.Code != "unknown_schema" {
		t.Fatalf("err = %v, want unknown_schema envelope", err)
	}
}

// TestStreamCoalescesAcrossConnections pins the tentpole behavior:
// concurrent single estimates from many connections dispatch in fewer,
// fuller batches. The first request of every connection arrives while
// no dispatch slot is free, so all of them leave as one batch whatever
// the scheduler does; the rest run free. Repeats of a request already
// answered never reach the batcher, so the fill is over the others.
func TestStreamCoalescesAcrossConnections(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{})
	const conns, perConn = 16, 10
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	release := srv.HoldDispatchSlots()
	for i := 0; i < conns; i++ {
		cl := dial(t, srv)
		wg.Add(1)
		go func(cl *stream.Client, i int) {
			defer wg.Done()
			for k := 0; k < perConn; k++ {
				req := &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[(i+k)%len(testPlans)])}
				if _, err := cl.EstimateRaw(context.Background(), req); err != nil {
					errs <- fmt.Errorf("conn %d: %w", i, err)
					return
				}
			}
		}(cl, i)
	}
	waitPending(t, srv, 1, conns)
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Requests != conns*perConn {
		t.Fatalf("requests = %d, want %d", st.Requests, conns*perConn)
	}
	if st.Responses != st.Requests {
		t.Fatalf("responses %d != requests %d", st.Responses, st.Requests)
	}
	if st.ReplayHits+st.ReplayMisses != st.Requests {
		t.Fatalf("replay hits %d + misses %d != requests %d", st.ReplayHits, st.ReplayMisses, st.Requests)
	}
	if fill := srv.BatchFill(); fill.MaxV < conns || st.Dispatches > st.ReplayMisses-conns+1 {
		t.Fatalf("no coalescing: %d dispatches for %d computed requests, fullest %d", st.Dispatches, st.ReplayMisses, fill.MaxV)
	}
	t.Logf("coalescing: %d requests, %d replayed, the rest in %d dispatches (avg fill %.1f)",
		st.Requests, st.ReplayHits, st.Dispatches, float64(st.ReplayMisses)/float64(st.Dispatches))
}

// TestStreamClientsRaceHotSwap races streaming clients against model
// republishes — the hot-swap discipline the HTTP path pins, on the new
// transport. Run with -race.
func TestStreamClientsRaceHotSwap(t *testing.T) {
	svc, srv := newStream(t, serve.Options{}, stream.Options{})
	const clients, perClient, swaps = 8, 20, 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			select {
			case <-stop:
				return
			default:
			}
			svc.Registry().Publish("", cpuEst)
			time.Sleep(500 * time.Microsecond)
		}
	}()
	for i := 0; i < clients; i++ {
		cl := dial(t, srv)
		wg.Add(1)
		go func(cl *stream.Client, i int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				resp, err := cl.Estimate(context.Background(), &stream.Request{
					Resource: "cpu", Plan: planJSON(t, testPlans[(i*perClient+k)%len(testPlans)]),
				})
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				if !(resp.Total > 0) {
					errs <- fmt.Errorf("client %d: non-positive total %v", i, resp.Total)
					return
				}
			}
		}(cl, i)
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamIdleReap: a connection with no inbound frames is closed
// once IdleTimeout passes, releasing its goroutines and socket.
func TestStreamIdleReap(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{IdleTimeout: 100 * time.Millisecond})
	cl := dial(t, srv)
	deadline := time.Now().Add(5 * time.Second)
	// Open is 0 both before the accept loop has registered the
	// connection and after the reap; Accepted tells the two apart.
	for st := srv.Stats(); st.Accepted != 1 || st.Open != 0; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("idle connection not reaped: %+v", srv.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The client's next call must fail — the server hung up — and so
	// must every call after it: the loss is sticky.
	req := &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[0])}
	_, err := cl.EstimateRaw(context.Background(), req)
	if !errors.Is(err, stream.ErrConnLost) {
		t.Fatalf("estimate on a reaped connection: %v, want ErrConnLost", err)
	}
	if cl.Err() == nil {
		t.Fatal("Err is nil after the connection was reaped")
	}
	if _, err := cl.EstimateRaw(context.Background(), req); !errors.Is(err, stream.ErrConnLost) {
		t.Fatalf("second estimate on a reaped connection: %v, want ErrConnLost", err)
	}
}

// TestStreamServerClose: Close tears down open connections and
// subsequent client calls fail rather than hang — as they do after the
// client's own Close.
func TestStreamServerClose(t *testing.T) {
	setup(t)
	svc := serve.New(serve.Options{})
	t.Cleanup(svc.Close)
	svc.Registry().Publish("", cpuEst)
	srv, err := stream.Start("127.0.0.1:0", stream.Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	cl, closed := dial(t, srv), dial(t, srv)
	req := &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[0])}
	for _, c := range []*stream.Client{cl, closed} {
		if _, err := c.Estimate(context.Background(), req); err != nil || c.Err() != nil {
			t.Fatalf("estimate on a live connection: %v, Err %v", err, c.Err())
		}
	}
	closed.Close()
	if _, err := closed.EstimateRaw(context.Background(), req); !errors.Is(err, stream.ErrConnLost) || closed.Err() == nil {
		t.Fatalf("estimate after the client's Close: %v, Err %v; want ErrConnLost and a sticky Err", err, closed.Err())
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := cl.EstimateRaw(ctx, req); !errors.Is(err, stream.ErrConnLost) {
		t.Fatalf("estimate after server close: %v, want ErrConnLost", err)
	}
	if cl.Err() == nil {
		t.Fatal("Err is nil after the server closed the connection")
	}
}
