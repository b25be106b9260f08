package serve_test

// Telemetry tests: the /metrics JSON wire shape stays byte-identical to
// the pre-telemetry service when idle, Prometheus exposition is opt-in
// via content negotiation, per-endpoint latency averages un-blend the
// single/batch populations, request IDs thread through error envelopes,
// and the whole instrumented hot path survives -race while being
// snapshotted mid-flight.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
)

// TestMetricsJSONWireCompat pins the idle /metrics JSON byte-for-byte.
// A pre-telemetry scraper of a fresh service must see exactly these
// bytes: the endpoints breakdown only appears once traffic has flowed,
// and the Prometheus representation only when asked for.
func TestMetricsJSONWireCompat(t *testing.T) {
	svc := newService(t, serve.Options{Workers: 2, CacheEntries: 1024})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q, want application/json", ct)
	}
	golden := `{"requests":0,"failures":0,"batch_requests":0,"batch_plans":0,` +
		`"avg_latency_ms":0,"workers":2,"cache":{"hits":0,"misses":0,"entries":0,` +
		`"capacity":1024},"models":[]}` + "\n"
	if string(body) != golden {
		t.Fatalf("idle /metrics drifted from the pinned wire shape:\n got: %q\nwant: %q",
			body, golden)
	}
}

// postEstimate sends one single-plan estimate over HTTP and returns the
// response (caller closes the body).
func postEstimate(t *testing.T, url string, p *plan.Plan, header http.Header) *http.Response {
	t.Helper()
	encoded, err := plan.EncodeJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{
		"schema": "tpch", "resource": "cpu", "plan": json.RawMessage(encoded),
	})
	req, err := http.NewRequest(http.MethodPost, url+"/estimate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestMetricsPrometheusNegotiation(t *testing.T) {
	svc := newService(t, serve.Options{Workers: 2, CacheEntries: 1024})
	svc.Registry().Publish("tpch", cpuEst)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// Drive all three endpoints so every per-endpoint family has samples.
	for _, p := range testPlans[:4] {
		resp := postEstimate(t, ts.URL, p, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate: %s", resp.Status)
		}
	}
	encoded := make([]json.RawMessage, 0, 4)
	for _, p := range testPlans[:4] {
		e, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, e)
	}
	body, _ := json.Marshal(map[string]any{
		"schema": "tpch", "resource": "cpu", "plans": encoded,
	})
	bresp, err := http.Post(ts.URL+"/estimate/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s", bresp.Status)
	}
	if _, err := svc.EstimateStream(context.Background(),
		serve.BatchRequest{Schema: "tpch", Plans: testPlans[:4]}, time.Millisecond); err != nil {
		t.Fatalf("stream dispatch: %v", err)
	}
	// A repeat answered by the response cache, and a failure: the
	// totals below are derived from the per-endpoint counters, so both
	// must land in them exactly once.
	resp := postEstimate(t, ts.URL, testPlans[0], nil)
	resp.Body.Close()
	if hits, _ := svc.ReplayCounts(); hits != 1 {
		t.Fatalf("repeated estimate not replayed: %d hits", hits)
	}
	if _, err := svc.Estimate(context.Background(),
		serve.Request{Schema: "no-such-schema", Resource: plan.CPUTime, Plan: testPlans[0]}); err == nil {
		t.Fatal("estimate on an unknown schema succeeded")
	}

	get := func(path string, accept string) (*http.Response, string) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}

	// Accept: text/plain negotiates Prometheus text exposition.
	resp, text := get("/metrics", "text/plain")
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Fatalf("prometheus content type %q, want %q", ct, obs.TextContentType)
	}
	for _, want := range []string{
		"# TYPE resserve_requests_total counter",
		`resserve_requests_total{endpoint="estimate"} 6`,
		`resserve_failures_total{endpoint="estimate"} 1`,
		`resserve_requests_total{endpoint="estimate_batch"} 1`,
		`resserve_batch_plans_total 4`,
		"# TYPE resserve_request_duration_seconds summary",
		`resserve_request_duration_seconds{endpoint="estimate",quantile="0.5"}`,
		`resserve_request_duration_seconds{endpoint="estimate",quantile="0.99"}`,
		`resserve_request_duration_seconds_count{endpoint="estimate"} 5`,
		"# TYPE resserve_stage_duration_seconds summary",
		"resserve_cache_hits_total",
		"resserve_cache_shard_misses_total",
		`resserve_model_version{mode=`,
		"resserve_workers 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus exposition missing %q in:\n%s", want, text)
		}
	}
	// Every stage of every endpoint is exposed, and the stages that
	// collected samples carry the full quantile ladder. The pool stages
	// — queue_wait, cache_probe, predict — are one pipeline's, so all
	// three endpoints sample all three; decode and encode belong to the
	// transport (the stream listener records its own).
	sampled := map[string][]obs.Stage{
		"estimate":        {obs.StageDecode, obs.StageQueue, obs.StageCacheProbe, obs.StagePredict, obs.StageEncode},
		"estimate_batch":  {obs.StageDecode, obs.StageQueue, obs.StageCacheProbe, obs.StagePredict, obs.StageEncode},
		"estimate_stream": {obs.StageCoalesce, obs.StageQueue, obs.StageCacheProbe, obs.StagePredict},
	}
	for _, ep := range []string{"estimate", "estimate_batch", "estimate_stream"} {
		for _, st := range obs.Stages() {
			want := fmt.Sprintf(
				`resserve_stage_duration_seconds_count{endpoint=%q,stage=%q}`,
				ep, st.String())
			if !strings.Contains(text, want) {
				t.Fatalf("missing stage count series %s in:\n%s", want, text)
			}
		}
		for _, st := range sampled[ep] {
			for _, q := range []string{"0.5", "0.9", "0.99", "1"} {
				want := fmt.Sprintf(
					`resserve_stage_duration_seconds{endpoint=%q,stage=%q,quantile=%q}`,
					ep, st.String(), q)
				if !strings.Contains(text, want) {
					t.Fatalf("missing stage series %s in:\n%s", want, text)
				}
			}
		}
	}

	// ?format=prometheus wins even with a JSON Accept header;
	// ?format=json wins even with a text Accept header.
	if resp, body := get("/metrics?format=prometheus", "application/json"); resp.Header.Get("Content-Type") != obs.TextContentType {
		t.Fatalf("?format=prometheus ignored: %q %q", resp.Header.Get("Content-Type"), body[:60])
	}
	resp, body2 := get("/metrics?format=json", "text/plain")
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("?format=json ignored: %q", resp.Header.Get("Content-Type"))
	}
	var m serve.Metrics
	if err := json.Unmarshal([]byte(body2), &m); err != nil {
		t.Fatalf("json metrics unparsable: %v", err)
	}

	// The JSON snapshot now carries the per-endpoint breakdown, and the
	// blended top-level average stays (wire compat).
	if m.Endpoints == nil {
		t.Fatal("endpoints breakdown missing after traffic")
	}
	if m.Endpoints.Estimate.Requests != 6 || m.Endpoints.EstimateBatch.Requests != 1 {
		t.Fatalf("endpoint request counts: %+v", m.Endpoints)
	}
	// The lifetime totals are the per-endpoint figures summed; the
	// blended average weighs each endpoint by its completed requests.
	var requests, failures, completed uint64
	var latencyMS float64
	for _, ep := range []serve.EndpointMetrics{m.Endpoints.Estimate, m.Endpoints.EstimateBatch, m.Endpoints.EstimateStream} {
		requests += ep.Requests
		failures += ep.Failures
		completed += ep.Requests - ep.Failures
		latencyMS += ep.AvgLatencyMS * float64(ep.Requests-ep.Failures)
	}
	if m.Requests != requests || m.Failures != failures || failures != 1 {
		t.Fatalf("totals %d requests / %d failures, endpoints sum to %d / %d",
			m.Requests, m.Failures, requests, failures)
	}
	if m.BatchRequests != m.Endpoints.EstimateBatch.Requests {
		t.Fatalf("batch_requests %d, estimate_batch.requests %d",
			m.BatchRequests, m.Endpoints.EstimateBatch.Requests)
	}
	if want := latencyMS / float64(completed); math.Abs(m.AvgLatencyMS-want) > 1e-9*want {
		t.Fatalf("avg_latency_ms %v, endpoints weigh to %v", m.AvgLatencyMS, want)
	}
	if m.Endpoints.Estimate.AvgLatencyMS <= 0 || m.Endpoints.EstimateBatch.AvgLatencyMS <= 0 {
		t.Fatalf("endpoint averages not recorded: %+v", m.Endpoints)
	}
	if m.AvgLatencyMS <= 0 {
		t.Fatalf("blended average lost: %+v", m)
	}
}

// TestPerEndpointLatencySummaries exercises the in-process summary
// accessors driving the shutdown log line.
func TestPerEndpointLatencySummaries(t *testing.T) {
	svc := newService(t, serve.Options{Workers: 2, CacheEntries: 1024})
	svc.Registry().Publish("tpch", cpuEst)
	ctx := context.Background()
	for _, p := range testPlans[:6] {
		if _, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Resource: plan.CPUTime, Plan: p}); err != nil {
			t.Fatal(err)
		}
	}
	sum := svc.RequestLatencies("estimate")
	if sum.Count != 6 || sum.P50 <= 0 || sum.P99 < sum.P50 || sum.Max < sum.P99 {
		t.Fatalf("estimate latency summary: %+v", sum)
	}
	if st := svc.StageLatencies("estimate", obs.StageQueue); st.Count != 6 {
		t.Fatalf("queue-wait stage summary: %+v", st)
	}
	if st := svc.StageLatencies("estimate", obs.StagePredict); st.Count != 6 || st.Max <= 0 {
		t.Fatalf("predict stage summary: %+v", st)
	}
	if sum := svc.RequestLatencies("estimate_batch"); sum.Count != 0 {
		t.Fatalf("batch summary should be empty: %+v", sum)
	}
	if sum := svc.RequestLatencies("nonsense"); sum != (obs.Summary{}) {
		t.Fatalf("unknown endpoint should be zero: %+v", sum)
	}

	// With telemetry disabled the accessors stay inert but per-endpoint
	// counters in Metrics still work.
	off := newService(t, serve.Options{Workers: 1, DisableTelemetry: true})
	off.Registry().Publish("tpch", cpuEst)
	if _, err := off.Estimate(ctx, serve.Request{Schema: "tpch", Resource: plan.CPUTime, Plan: testPlans[0]}); err != nil {
		t.Fatal(err)
	}
	if sum := off.RequestLatencies("estimate"); sum != (obs.Summary{}) {
		t.Fatalf("disabled telemetry recorded latencies: %+v", sum)
	}
	m := off.Metrics()
	if m.Endpoints == nil || m.Endpoints.Estimate.Requests != 1 {
		t.Fatalf("per-endpoint counters should survive DisableTelemetry: %+v", m.Endpoints)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	svc := newService(t, serve.Options{Workers: 1})
	svc.Registry().Publish("tpch", cpuEst)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// Client-supplied ID is echoed on success responses.
	h := http.Header{}
	h.Set("X-Request-ID", "client-abc-123")
	resp := postEstimate(t, ts.URL, testPlans[0], h)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc-123" {
		t.Fatalf("client request ID not echoed: %q", got)
	}

	// Without one, the server mints an ID and echoes it.
	resp = postEstimate(t, ts.URL, testPlans[0], nil)
	resp.Body.Close()
	gen := resp.Header.Get("X-Request-ID")
	if gen == "" || !strings.Contains(gen, "-") {
		t.Fatalf("no generated request ID: %q", gen)
	}

	// Error envelopes carry the request's ID.
	encoded, err := plan.EncodeJSON(testPlans[0])
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/estimate",
		strings.NewReader(`{"schema":"no-such-schema","plan":`+string(encoded)+`}`))
	req.Header.Set("X-Request-ID", "err-trace-9")
	eresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error     string `json:"error"`
		Code      string `json:"code"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(eresp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	if eresp.StatusCode != http.StatusNotFound {
		t.Fatalf("expected 404, got %s", eresp.Status)
	}
	if envelope.RequestID != "err-trace-9" {
		t.Fatalf("error envelope request_id %q, want err-trace-9 (envelope %+v)",
			envelope.RequestID, envelope)
	}
}

// TestTelemetryRaceHammer hammers the instrumented hot paths — single
// estimates, batches, hot-swap republishes — while concurrently
// snapshotting histograms and rendering the Prometheus exposition.
// Meaningful under -race: it proves scrape-time reads never tear
// against request-time writes. Every worker runs a fixed iteration
// count (not a timed window): a non-blocking hot loop like Publish can
// starve its peers on a one-CPU scheduler, which would turn a timed
// hammer into a no-op for the starved endpoint.
func TestTelemetryRaceHammer(t *testing.T) {
	svc := newService(t, serve.Options{Workers: 4, CacheEntries: 256})
	svc.Registry().Publish("tpch", cpuEst)
	ctx := context.Background()

	var load sync.WaitGroup
	loadDone := make(chan struct{})
	generator := func(iters int, fn func()) {
		load.Add(1)
		go func() {
			defer load.Done()
			for i := 0; i < iters; i++ {
				fn()
			}
		}()
	}
	// Load generators.
	for g := 0; g < 3; g++ {
		g := g
		generator(300, func() {
			p := testPlans[g%len(testPlans)]
			if _, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Resource: plan.CPUTime, Plan: p}); err != nil {
				t.Error(err)
			}
		})
	}
	generator(40, func() {
		if _, err := svc.EstimateBatch(ctx, serve.BatchRequest{
			Schema: "tpch", Resource: plan.CPUTime, Plans: testPlans[:4],
			Timeout: time.Minute,
		}); err != nil {
			t.Error(err)
		}
	})
	// Hot-swap publisher.
	generator(100, func() { svc.Registry().Publish("tpch", cpuEst) })

	// Observers run until the load drains: histogram snapshots and full
	// Prometheus renders racing the writers above.
	var observers sync.WaitGroup
	observe := func(fn func()) {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-loadDone:
					return
				default:
					fn()
				}
			}
		}()
	}
	observe(func() {
		_ = svc.RequestLatencies("estimate")
		_ = svc.StageLatencies("estimate", obs.StagePredict)
		_ = svc.Metrics()
	})
	observe(func() {
		var b bytes.Buffer
		if err := svc.Obs().WritePrometheus(&b); err != nil {
			t.Error(err)
		}
	})

	load.Wait()
	close(loadDone)
	observers.Wait()

	if sum := svc.RequestLatencies("estimate"); sum.Count != 900 {
		t.Fatalf("hammer recorded %d estimate latencies, want 900", sum.Count)
	}
	m := svc.Metrics()
	if m.Endpoints == nil || m.Endpoints.EstimateBatch.Requests != 40 {
		t.Fatalf("hammer batch counters: %+v", m.Endpoints)
	}
	if got := m.Endpoints.Estimate.Requests; got != 900 {
		t.Fatalf("hammer estimate counter %d, want 900", got)
	}
}
