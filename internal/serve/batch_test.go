package serve_test

// Tests for batched estimation: bit-exact equivalence with sequential
// /estimate, cache sharing between the two entry points, the HTTP
// endpoint (including its structured error shapes), and every way into
// the pipeline at once under hot-swap (run with -race).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/serve"
)

// TestEstimateBatchMatchesSequential is the serving-level equivalence
// property: a batch response must carry, per plan, exactly the values
// sequential Estimate calls produce — operators, pipelines and totals,
// bit for bit.
func TestEstimateBatchMatchesSequential(t *testing.T) {
	for _, entries := range []int{-1, 4096} {
		reg := serve.NewRegistry()
		svc := newService(t, serve.Options{Registry: reg, CacheEntries: entries})
		reg.Publish("tpch", cpuEst)
		ctx := context.Background()

		batch, err := svc.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch", Plans: testPlans})
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Plans) != len(testPlans) {
			t.Fatalf("cache=%d: %d results for %d plans", entries, len(batch.Plans), len(testPlans))
		}
		for i, p := range testPlans {
			seq, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Plan: p})
			if err != nil {
				t.Fatal(err)
			}
			got := batch.Plans[i]
			if math.Float64bits(got.Total) != math.Float64bits(seq.Total) {
				t.Fatalf("cache=%d plan %d: batch total %v != sequential %v", entries, i, got.Total, seq.Total)
			}
			if len(got.Operators) != len(seq.Operators) {
				t.Fatalf("plan %d: operator count %d != %d", i, len(got.Operators), len(seq.Operators))
			}
			for j := range got.Operators {
				g, s := got.Operators[j], seq.Operators[j]
				if g.ID != s.ID || g.Kind != s.Kind ||
					math.Float64bits(g.Estimate) != math.Float64bits(s.Estimate) {
					t.Fatalf("plan %d op %d: %+v != %+v", i, j, g, s)
				}
			}
			if len(got.Pipelines) != len(seq.Pipelines) {
				t.Fatalf("plan %d: pipeline count mismatch", i)
			}
			for j := range got.Pipelines {
				if math.Float64bits(got.Pipelines[j].Estimate) != math.Float64bits(seq.Pipelines[j].Estimate) {
					t.Fatalf("plan %d pipeline %d: %v != %v", i, j,
						got.Pipelines[j].Estimate, seq.Pipelines[j].Estimate)
				}
			}
		}
	}
}

// TestEstimateBatchCacheSharing proves the two entry points share one
// cache — a batch warms it for sequential requests and vice versa — and
// one way of counting probes.
func TestEstimateBatchCacheSharing(t *testing.T) {
	svc := newService(t, serve.Options{CacheEntries: 1 << 14})
	svc.Registry().Publish("tpch", cpuEst)
	ctx := context.Background()

	cold, err := svc.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch", Plans: testPlans})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 && cold.CacheMisses == 0 {
		t.Fatalf("cold batch: hits %d misses %d", cold.CacheHits, cold.CacheMisses)
	}
	// Sequential requests must now hit the batch-populated entries.
	seq, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Plan: testPlans[0]})
	if err != nil {
		t.Fatal(err)
	}
	if seq.CacheMisses != 0 {
		t.Fatalf("sequential after batch: %d misses, want 0", seq.CacheMisses)
	}
	// And a repeated batch is all hits.
	warm, err := svc.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch", Plans: testPlans})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheMisses != 0 {
		t.Fatalf("warm batch: %d misses, want 0", warm.CacheMisses)
	}
	m := svc.Metrics()
	if m.BatchRequests != 2 || m.BatchPlans != uint64(2*len(testPlans)) {
		t.Fatalf("batch counters: %d requests, %d plans", m.BatchRequests, m.BatchPlans)
	}

	// A plan that repeats an operator, as a single estimate and as a
	// batch of one, each on a service that has never seen it and then
	// again: the same fields and the same counters. Cold, the twin scans
	// are probed together — two misses, one cache entry.
	sj := selfJoinPlan()
	one := newService(t, serve.Options{Registry: svc.Registry()})
	for _, serving := range []struct {
		name         string
		hits, misses int
	}{{"cold", 0, 5}, {"warm", 5, 0}} {
		single, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Plan: sj})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := one.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch", Plans: []*plan.Plan{sj}})
		if err != nil {
			t.Fatal(err)
		}
		if single.CacheHits != serving.hits || single.CacheMisses != serving.misses ||
			batch.CacheHits != serving.hits || batch.CacheMisses != serving.misses {
			t.Fatalf("%s self-join: single %d/%d, batch of one %d/%d, want %d/%d", serving.name,
				single.CacheHits, single.CacheMisses, batch.CacheHits, batch.CacheMisses, serving.hits, serving.misses)
		}
		pe := batch.Plans[0]
		if math.Float64bits(pe.Total) != math.Float64bits(single.Total) ||
			!reflect.DeepEqual(pe.Operators, single.Operators) || !reflect.DeepEqual(pe.Pipelines, single.Pipelines) {
			t.Fatalf("%s self-join: batch of one %+v differs from the single estimate %+v", serving.name, pe, single)
		}
	}
	if got := one.Metrics().Cache.Entries; got != 4 {
		t.Fatalf("self-join left %d cache entries, want 4 (the scans share one)", got)
	}
}

// TestEstimateBatchErrors covers the service-level failure modes.
func TestEstimateBatchErrors(t *testing.T) {
	svc := newService(t, serve.Options{})
	ctx := context.Background()
	if _, err := svc.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch"}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := svc.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch", Plans: testPlans[:2]}); err == nil {
		t.Fatal("batch without model accepted")
	}
	svc.Registry().Publish("tpch", cpuEst)
	bad := plan.New(plan.NewLeaf(plan.TableScan, "t"), "bad") // no table stats
	_, err := svc.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch", Plans: []*plan.Plan{testPlans[0], bad}})
	if err == nil || !strings.Contains(err.Error(), "plan 1") {
		t.Fatalf("invalid batch plan: %v (want error naming plan 1)", err)
	}
	if _, err := svc.EstimateBatch(ctx, serve.BatchRequest{
		Schema: "tpch", Plans: testPlans, Timeout: time.Nanosecond,
	}); err == nil {
		t.Fatal("nanosecond batch deadline met")
	}
}

// postDecode posts a JSON body (via postJSON from the feedback tests)
// and decodes the response envelope into out.
func postDecode(t *testing.T, url string, body any, out any) int {
	t.Helper()
	resp, data := postJSON(t, url, body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, data, err)
		}
	}
	return resp.StatusCode
}

// wireErrorJSON mirrors the service's structured error envelope.
type wireErrorJSON struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	Plan  *int   `json:"plan"`
}

// TestHTTPEstimateBatch drives POST /estimate/batch end to end and
// checks it against per-plan POST /estimate responses.
func TestHTTPEstimateBatch(t *testing.T) {
	svc := newService(t, serve.Options{})
	svc.Registry().Publish("tpch", cpuEst)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	raws := make([]json.RawMessage, len(testPlans))
	for i, p := range testPlans {
		enc, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = enc
	}
	var batch serve.BatchResponse
	if code := postDecode(t, srv.URL+"/estimate/batch", map[string]any{
		"schema": "tpch", "resource": "cpu", "plans": raws,
	}, &batch); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(batch.Plans) != len(testPlans) {
		t.Fatalf("%d batch results for %d plans", len(batch.Plans), len(testPlans))
	}
	for i, raw := range raws {
		var single serve.Response
		if code := postDecode(t, srv.URL+"/estimate", map[string]any{
			"schema": "tpch", "resource": "cpu", "plan": json.RawMessage(raw),
		}, &single); code != http.StatusOK {
			t.Fatalf("single status %d", code)
		}
		if math.Float64bits(batch.Plans[i].Total) != math.Float64bits(single.Total) {
			t.Fatalf("plan %d: HTTP batch total %v != single %v", i, batch.Plans[i].Total, single.Total)
		}
	}
}

// TestHTTPErrorShapes asserts the structured error envelope — message,
// stable code, and (for batches) the offending plan index — for
// unknown schemas, unknown operators and unknown resources on both
// estimate endpoints.
func TestHTTPErrorShapes(t *testing.T) {
	svc := newService(t, serve.Options{})
	svc.Registry().Publish("tpch", cpuEst)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	good, err := plan.EncodeJSON(testPlans[0])
	if err != nil {
		t.Fatal(err)
	}
	badOp := json.RawMessage(`{"version":1,"root":{"kind":"QuantumScan","table":"t","table_rows":1,"table_pages":1}}`)

	cases := []struct {
		name     string
		url      string
		body     map[string]any
		status   int
		code     string
		planIdx  *int
		contains string
	}{
		{
			name: "estimate unknown schema", url: "/estimate",
			body:   map[string]any{"schema": "nosuch", "resource": "io", "plan": json.RawMessage(good)},
			status: http.StatusNotFound, code: "unknown_schema", contains: "nosuch",
		},
		{
			name: "estimate unknown operator", url: "/estimate",
			body:   map[string]any{"schema": "tpch", "plan": badOp},
			status: http.StatusBadRequest, code: "unknown_operator", contains: "QuantumScan",
		},
		{
			name: "estimate unknown resource", url: "/estimate",
			body:   map[string]any{"schema": "tpch", "resource": "gpu", "plan": json.RawMessage(good)},
			status: http.StatusBadRequest, code: "unknown_resource", contains: "gpu",
		},
		{
			name: "batch unknown schema", url: "/estimate/batch",
			body:   map[string]any{"schema": "nosuch", "plans": []json.RawMessage{good}},
			status: http.StatusNotFound, code: "unknown_schema", contains: "nosuch",
		},
		{
			name: "batch unknown operator names plan", url: "/estimate/batch",
			body:    map[string]any{"schema": "tpch", "plans": []json.RawMessage{good, badOp}},
			status:  http.StatusBadRequest,
			code:    "unknown_operator",
			planIdx: intp(1), contains: "QuantumScan",
		},
		{
			name: "batch empty", url: "/estimate/batch",
			body:   map[string]any{"schema": "tpch"},
			status: http.StatusBadRequest, code: "bad_request", contains: "missing plans",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e wireErrorJSON
			code := postDecode(t, srv.URL+tc.url, tc.body, &e)
			if code != tc.status {
				t.Fatalf("status %d, want %d (%+v)", code, tc.status, e)
			}
			if e.Code != tc.code {
				t.Fatalf("error code %q, want %q (%+v)", e.Code, tc.code, e)
			}
			if e.Error == "" || !strings.Contains(e.Error, tc.contains) {
				t.Fatalf("error message %q does not mention %q", e.Error, tc.contains)
			}
			if (tc.planIdx == nil) != (e.Plan == nil) {
				t.Fatalf("plan index presence: got %v, want %v", e.Plan, tc.planIdx)
			}
			if tc.planIdx != nil && *e.Plan != *tc.planIdx {
				t.Fatalf("plan index %d, want %d", *e.Plan, *tc.planIdx)
			}
		})
	}

	// A batch over the plan-count limit is rejected up front.
	big := make([]json.RawMessage, 1025)
	for i := range big {
		big[i] = good
	}
	var e wireErrorJSON
	if code := postDecode(t, srv.URL+"/estimate/batch", map[string]any{"schema": "tpch", "plans": big}, &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d (%+v)", code, e)
	}
	if e.Code != "batch_too_large" {
		t.Fatalf("oversized batch code %q", e.Code)
	}
}

func intp(i int) *int { return &i }

// TestHTTPBatchDecodeErrors pins what the batch decoder answers for a
// plans value that is not an array of plans, to the byte: which
// failures reject the whole body, which name a plan, and which wins
// when a batch has several.
func TestHTTPBatchDecodeErrors(t *testing.T) {
	svc := newService(t, serve.Options{})
	svc.Registry().Publish("tpch", cpuEst)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	enc, err := plan.EncodeJSON(testPlans[0])
	if err != nil {
		t.Fatal(err)
	}
	good := string(enc)
	const (
		badOp    = `{"version":1,"root":{"kind":"QuantumScan","table":"t","table_rows":1,"table_pages":1}}`
		badArity = `{"version":1,"root":{"kind":"Sort"}}`
		typeErr  = "bad request body: json: cannot unmarshal number into Go struct field batchEstimateRequestJSON.plans"
	)
	cases := []struct {
		name, plans string
		status      int
		code, error string
		planIdx     int // -1: no plan index
	}{
		{"not an array", `{"0":` + good + `}`, 400, "bad_request", "bad request body: plans must be an array", -1},
		{"a number", `5`, 400, "bad_request", "bad request body: plans must be an array", -1},
		{"null", `null`, 400, "bad_request", "missing plans", -1},
		{"empty", `[ ]`, 400, "bad_request", "missing plans", -1},
		{"syntax error", `[` + good + `,]`, 400, "bad_request",
			"bad request body: invalid character ']' looking for beginning of value", -1},
		{"element of the wrong type", `[` + good + `,5]`, 400, "bad_request", typeErr + " of type plan.Wire", -1},
		{"field of the wrong type", `[{"version":1,"root":{"kind":7}}]`, 400, "bad_request",
			typeErr + ".root.kind of type string", -1},
		{"type error after a bad plan", `[` + badArity + `,{"version":1,"root":{"kind":7}}]`, 400, "bad_request",
			typeErr + ".root.kind of type string", -1},
		{"null element", `[` + good + `,null]`, 400, "bad_plan", "plan 1: plan: decode: unsupported wire version 0", 1},
		{"first bad plan is named", `[` + good + `, ` + badArity + ` ,` + badOp + `]`, 400, "bad_plan",
			"plan 1: plan: decode: plan: node 0 (Sort) has 0 children, want 1", 1},
		{"cap before a bad plan", `[` + badOp + strings.Repeat(`,`+good, 1024) + `]`, 413, "batch_too_large",
			"serve: batch exceeds the 1024-plan limit", -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/estimate/batch", "application/json",
				strings.NewReader(`{"schema":"tpch","plans":`+tc.plans+`}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e wireErrorJSON
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || e.Code != tc.code || e.Error != tc.error {
				t.Fatalf("answered %d %s %q\nwant     %d %s %q", resp.StatusCode, e.Code, e.Error, tc.status, tc.code, tc.error)
			}
			got := -1
			if e.Plan != nil {
				got = *e.Plan
			}
			if got != tc.planIdx {
				t.Fatalf("plan index %d, want %d (-1: none)", got, tc.planIdx)
			}
		})
	}
}

// TestConcurrentBatchDuringHotSwap hammers the one pipeline through
// every way in — EstimateBatch, Estimate, EstimateStream and POST
// /observe's scoring, over the same plans, from many goroutines — while
// the model is republished: the -race equivalence target. Every
// response must be internally consistent and match the immutable
// estimator exactly.
func TestConcurrentBatchDuringHotSwap(t *testing.T) {
	reg := serve.NewRegistry()
	// No retrain may publish a different model under the comparison.
	loop, err := feedback.New(feedback.Options{Publisher: reg, DriftThreshold: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loop.Close() })
	svc := newService(t, serve.Options{Registry: reg, Workers: 8, Feedback: loop})
	h := svc.Handler()
	first := reg.Publish("tpch", cpuEst)

	want := make([]float64, len(testPlans))
	for i, p := range testPlans {
		want[i] = cpuEst.PredictPlan(p)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Publish("tpch", cpuEst)
			time.Sleep(time.Millisecond)
		}
	}()

	const clients = 8
	// The c%4 == 3 clients post observeEach observations each: two
	// clients times 16 is the loop's 32 exemplars, so every scored
	// observation is kept and checked below.
	const observers, observeEach = clients / 4, 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < 25; r++ {
				one := (c + r) % len(testPlans)
				switch c % 4 {
				case 0:
					resp, err := svc.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch", Plans: testPlans})
					if err != nil {
						errs <- err
						return
					}
					if resp.Model.Version < first.Version {
						errs <- fmt.Errorf("batch served version %d before first publish %d",
							resp.Model.Version, first.Version)
						return
					}
					for i, pe := range resp.Plans {
						var sum float64
						for _, oe := range pe.Operators {
							sum += oe.Estimate
						}
						if math.Abs(sum-pe.Total) > 1e-9 {
							errs <- fmt.Errorf("batch plan %d inconsistent under swap", i)
							return
						}
						if math.Float64bits(pe.Total) != math.Float64bits(want[i]) {
							errs <- fmt.Errorf("batch plan %d: %v != reference %v", i, pe.Total, want[i])
							return
						}
					}
				case 1:
					resp, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Plan: testPlans[one]})
					if err != nil {
						errs <- err
						return
					}
					if math.Float64bits(resp.Total) != math.Float64bits(want[one]) {
						errs <- fmt.Errorf("sequential total diverged under swap")
						return
					}
				case 2:
					resps, err := svc.EstimateStream(ctx, serve.BatchRequest{Schema: "tpch", Plans: testPlans}, 0)
					if err != nil {
						errs <- err
						return
					}
					for i, resp := range resps {
						if math.Float64bits(resp.Total) != math.Float64bits(want[i]) {
							errs <- fmt.Errorf("stream plan %d: %v != reference %v", i, resp.Total, want[i])
							return
						}
					}
				default:
					if r >= observeEach {
						continue
					}
					// No reported prediction: the loop's is the sum of what
					// the handler resolved through the cache, and lands —
					// under the plan's index — on the exemplar checked below.
					req := httptest.NewRequest(http.MethodPost, "/observe",
						bytes.NewReader(observeBody(t, 0, 0, testPlans[one])))
					req.Header.Set("X-Request-ID", strconv.Itoa(one))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusAccepted {
						errs <- fmt.Errorf("observe: %d %s", rec.Code, rec.Body)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	scored := loop.Exemplars()
	if len(scored) != observers*observeEach {
		t.Fatalf("%d observations scored, want every one of the %d posted", len(scored), observers*observeEach)
	}
	for _, ex := range scored {
		i, err := strconv.Atoi(ex.RequestID)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ex.Predicted) != math.Float64bits(want[i]) {
			t.Fatalf("observe scored plan %d at %v under swap, reference %v", i, ex.Predicted, want[i])
		}
	}
}
