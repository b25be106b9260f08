package serve_test

// Tests for the serving subsystem: routing and hot-swap semantics,
// cache correctness (cached == uncached), deadline behavior, and the
// HTTP surface. Run with -race: the hot-swap test hammers /estimate
// from many goroutines while republishing models.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/workload"
)

var (
	setupOnce  sync.Once
	cpuEst     *core.Estimator
	ioEst      *core.Estimator
	trainPlans []*plan.Plan
	testPlans  []*plan.Plan
)

// setup trains one small CPU and one small I/O estimator and keeps a
// held-out plan set. Shared across tests; estimators are immutable so
// sharing is safe even under -race.
func setup(t testing.TB) {
	t.Helper()
	setupOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.N = 96
		cfg.Seed = 42
		qs := workload.GenTPCH(cfg)
		eng := engine.New(nil)
		plans := make([]*plan.Plan, len(qs))
		for i, q := range qs {
			eng.Run(q.Plan)
			plans[i] = q.Plan
		}
		cut := len(plans) * 3 / 4
		ccfg := core.DefaultConfig()
		ccfg.Mart.Iterations = 60
		var err error
		cpuEst, err = core.Train(plans[:cut], plan.CPUTime, nil, ccfg)
		if err != nil {
			panic(err)
		}
		ioEst, err = core.Train(plans[:cut], plan.LogicalIO, nil, ccfg)
		if err != nil {
			panic(err)
		}
		trainPlans = plans[:cut]
		testPlans = plans[cut:]
	})
}

func newService(t testing.TB, opts serve.Options) *serve.Service {
	t.Helper()
	setup(t)
	s := serve.New(opts)
	t.Cleanup(s.Close)
	return s
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

func TestRegistryRoutingAndFallback(t *testing.T) {
	setup(t)
	reg := serve.NewRegistry()
	if _, ok := reg.Lookup("tpch", plan.CPUTime); ok {
		t.Fatal("lookup on empty registry succeeded")
	}
	wild := reg.Publish("", cpuEst)
	tpch := reg.Publish("tpch", cpuEst)
	if tpch.Version <= wild.Version {
		t.Fatalf("versions not increasing: %d then %d", wild.Version, tpch.Version)
	}
	m, ok := reg.Lookup("tpch", plan.CPUTime)
	if !ok || m.Info.Version != tpch.Version {
		t.Fatal("dedicated model not routed")
	}
	m, ok = reg.Lookup("tpcds", plan.CPUTime)
	if !ok || m.Info.Version != wild.Version {
		t.Fatal("wildcard fallback not routed")
	}
	if _, ok = reg.Lookup("tpch", plan.LogicalIO); ok {
		t.Fatal("resource routed without a model")
	}
	reg.Publish("tpch", ioEst)
	if infos := reg.Models(); len(infos) != 3 {
		t.Fatalf("Models() returned %d entries, want 3", len(infos))
	}
}

// TestConcurrentPublishSettlesOnNewest races publishes to one slot:
// whatever the interleaving, the slot must end on the highest version
// ever returned.
func TestConcurrentPublishSettlesOnNewest(t *testing.T) {
	setup(t)
	reg := serve.NewRegistry()
	const publishers = 16
	versions := make([]uint64, publishers)
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			versions[i] = reg.Publish("tpch", cpuEst).Version
		}(i)
	}
	wg.Wait()
	var max uint64
	for _, v := range versions {
		if v > max {
			max = v
		}
	}
	m, ok := reg.Lookup("tpch", plan.CPUTime)
	if !ok || m.Info.Version != max {
		t.Fatalf("slot settled on version %d, want newest %d", m.Info.Version, max)
	}
}

func TestEstimateMatchesInProcessAPI(t *testing.T) {
	svc := newService(t, serve.Options{})
	svc.Registry().Publish("tpch", cpuEst)
	for _, p := range testPlans {
		resp, err := svc.Estimate(context.Background(), serve.Request{Schema: "tpch", Plan: p})
		if err != nil {
			t.Fatal(err)
		}
		want := cpuEst.PredictPlan(p)
		if math.Abs(resp.Total-want) > 1e-9*(want+1) {
			t.Fatalf("%s: served total %v != in-process %v", p.Tag, resp.Total, want)
		}
		wantPipes := cpuEst.PredictPipelines(p)
		if len(resp.Pipelines) != len(wantPipes) {
			t.Fatalf("%s: %d pipelines, want %d", p.Tag, len(resp.Pipelines), len(wantPipes))
		}
		var sumOps, sumPipes float64
		for _, oe := range resp.Operators {
			sumOps += oe.Estimate
		}
		for i, pe := range resp.Pipelines {
			sumPipes += pe.Estimate
			if math.Abs(pe.Estimate-wantPipes[i]) > 1e-9*(wantPipes[i]+1) {
				t.Fatalf("%s: pipeline %d: %v != %v", p.Tag, i, pe.Estimate, wantPipes[i])
			}
		}
		if math.Abs(sumOps-resp.Total) > 1e-9 || math.Abs(sumPipes-resp.Total) > 1e-9 {
			t.Fatalf("%s: inconsistent granularities: ops %v pipes %v total %v",
				p.Tag, sumOps, sumPipes, resp.Total)
		}
	}
}

// TestCacheCorrectness verifies the core cache property: a cached
// result is identical to an uncached one, across repeats and across a
// cached/uncached service pair.
func TestCacheCorrectness(t *testing.T) {
	reg := serve.NewRegistry()
	cached := newService(t, serve.Options{Registry: reg, CacheEntries: 4096})
	uncached := newService(t, serve.Options{Registry: reg, CacheEntries: -1})
	reg.Publish("tpch", cpuEst)

	ctx := context.Background()
	for _, p := range testPlans {
		cold, err := cached.Estimate(ctx, serve.Request{Schema: "tpch", Plan: p})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := cached.Estimate(ctx, serve.Request{Schema: "tpch", Plan: p})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := uncached.Estimate(ctx, serve.Request{Schema: "tpch", Plan: p})
		if err != nil {
			t.Fatal(err)
		}
		if warm.CacheHits != len(p.Nodes()) {
			t.Fatalf("%s: warm pass hit %d/%d operators", p.Tag, warm.CacheHits, len(p.Nodes()))
		}
		if plain.CacheHits != 0 {
			t.Fatalf("%s: disabled cache reported hits", p.Tag)
		}
		for i := range cold.Operators {
			c, w, pl := cold.Operators[i], warm.Operators[i], plain.Operators[i]
			if c.ID != w.ID || c.ID != pl.ID || c.Estimate != w.Estimate || c.Estimate != pl.Estimate {
				t.Fatalf("%s: operator %d diverges: cold %+v warm %+v plain %+v",
					p.Tag, i, c, w, pl)
			}
		}
		if cold.Total != warm.Total || cold.Total != plain.Total {
			t.Fatalf("%s: totals diverge: %v %v %v", p.Tag, cold.Total, warm.Total, plain.Total)
		}
	}
	st := cached.Metrics().Cache
	if st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("cache never engaged: %+v", st)
	}
}

// TestCacheLRUBound fills the cache past capacity and checks the bound
// holds and SIEVE eviction doesn't corrupt results. (The name predates
// the move from LRU.)
func TestCacheLRUBound(t *testing.T) {
	svc := newService(t, serve.Options{CacheEntries: 64})
	svc.Registry().Publish("tpch", cpuEst)
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		for _, p := range testPlans {
			resp, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Plan: p})
			if err != nil {
				t.Fatal(err)
			}
			if want := cpuEst.PredictPlan(p); math.Abs(resp.Total-want) > 1e-9*(want+1) {
				t.Fatalf("%s: total drifted under eviction", p.Tag)
			}
		}
	}
	st := svc.Metrics().Cache
	if st.Entries > st.Capacity {
		t.Fatalf("cache over capacity: %+v", st)
	}
}

// TestConcurrentEstimateDuringHotSwap exercises parallel /estimate
// traffic while models are republished — the -race target of the CI
// workflow. Every response must be internally consistent and carry a
// version that was published at some point.
func TestConcurrentEstimateDuringHotSwap(t *testing.T) {
	svc := newService(t, serve.Options{Workers: 8})
	first := svc.Registry().Publish("tpch", cpuEst)

	const (
		clients  = 8
		requests = 40
	)
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
			// Each publish installs a new version on the same route.
			svc.Registry().Publish("tpch", cpuEst)
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < requests; i++ {
				p := testPlans[(c+i)%len(testPlans)]
				resp, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Plan: p})
				if err != nil {
					errs <- err
					return
				}
				if resp.Model.Version < first.Version {
					errs <- fmt.Errorf("response version %d predates first publish %d",
						resp.Model.Version, first.Version)
					return
				}
				var sum float64
				for _, oe := range resp.Operators {
					sum += oe.Estimate
				}
				if math.Abs(sum-resp.Total) > 1e-9 {
					errs <- fmt.Errorf("inconsistent response under swap: %v vs %v", sum, resp.Total)
					return
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
}

func TestEstimateErrors(t *testing.T) {
	svc := newService(t, serve.Options{})
	ctx := context.Background()
	if _, err := svc.Estimate(ctx, serve.Request{Plan: nil}); err == nil {
		t.Fatal("nil plan accepted")
	}
	p := testPlans[0]
	if _, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Plan: p}); !errors.Is(err, serve.ErrNoModel) {
		t.Fatalf("want ErrNoModel, got %v", err)
	}
	svc.Registry().Publish("tpch", cpuEst)
	if _, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Plan: p, Timeout: time.Nanosecond}); err == nil {
		t.Fatal("nanosecond deadline met")
	}
	bad := plan.New(plan.NewLeaf(plan.TableScan, "t"), "bad") // no table stats
	if _, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Plan: bad}); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestServiceClose(t *testing.T) {
	setup(t)
	svc := serve.New(serve.Options{})
	svc.Registry().Publish("tpch", cpuEst)
	svc.Close()
	_, err := svc.Estimate(context.Background(), serve.Request{Schema: "tpch", Plan: testPlans[0]})
	if !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("estimate after close: %v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}

// TestWorkersBoundCompute pins Options.Workers as a bound on requests
// computing at once, kept on the callers' own goroutines: New starts
// none, and with the one slot held an Estimate waits — counted by
// resserve_queue_depth — until its deadline fails it, or until Close
// does.
func TestWorkersBoundCompute(t *testing.T) {
	setup(t)
	// Counted once the count holds still: goroutines of earlier work
	// (setup's training) may still be on their way out.
	settled := func() int {
		n := runtime.NumGoroutine()
		for {
			time.Sleep(10 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				return n
			}
			n = m
		}
	}
	before := settled()
	svc := serve.New(serve.Options{Workers: 1, DefaultTimeout: time.Minute})
	t.Cleanup(svc.Close)
	if started := settled() - before; started != 0 {
		t.Fatalf("New started %d goroutines", started)
	}
	svc.Registry().Publish("tpch", cpuEst)
	release := svc.HoldSlots(1)
	defer release()

	// waiting returns when depth is what resserve_queue_depth reads, or
	// when done delivers first — the error the waiting call returned.
	waiting := func(depth string, done chan error) error {
		t.Helper()
		for {
			select {
			case err := <-done:
				return err
			default:
			}
			if promValue(t, svc, "resserve_queue_depth") == depth {
				return nil
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	estimate := func(timeout time.Duration) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := svc.Estimate(context.Background(), serve.Request{Schema: "tpch", Plan: testPlans[0], Timeout: timeout})
			done <- err
		}()
		return done
	}

	timed := estimate(50 * time.Millisecond)
	if err := waiting("1", timed); err != nil {
		t.Fatalf("the 50 ms estimate returned %v before resserve_queue_depth read 1", err)
	}
	if err := <-timed; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("estimate waiting past its deadline: %v, want DeadlineExceeded", err)
	}
	if depth := promValue(t, svc, "resserve_queue_depth"); depth != "0" {
		t.Fatalf("resserve_queue_depth %s after the wait ended, want 0", depth)
	}

	closed := estimate(0)
	if err := waiting("1", closed); err != nil {
		t.Fatalf("estimate returned %v before resserve_queue_depth read 1", err)
	}
	svc.Close()
	if err := <-closed; !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("estimate waiting at Close: %v, want ErrClosed", err)
	}
}

// TestHTTPEndpoints drives the full HTTP surface: wire-encoded plan in,
// predictions out matching the in-process API, plus /models, /metrics
// and /healthz.
func TestHTTPEndpoints(t *testing.T) {
	svc := newService(t, serve.Options{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// Before any model: healthz degraded, estimate 404.
	resp0, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz before publish: %s", resp0.Status)
	}

	svc.Registry().Publish("tpch", cpuEst)
	svc.Registry().Publish("tpch", ioEst)

	p := testPlans[0]
	encoded, err := plan.EncodeJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		resource string
		want     float64
	}{
		{"cpu", cpuEst.PredictPlan(p)},
		{"io", ioEst.PredictPlan(p)},
	} {
		body, _ := json.Marshal(map[string]any{
			"schema": "tpch", "resource": tc.resource, "plan": json.RawMessage(encoded),
		})
		resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %s", tc.resource, resp.Status)
		}
		var out serve.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if math.Abs(out.Total-tc.want) > 1e-9*(tc.want+1) {
			t.Fatalf("%s: HTTP total %v != in-process %v", tc.resource, out.Total, tc.want)
		}
		if len(out.Operators) != p.NumNodes() || len(out.Pipelines) != len(p.Pipelines()) {
			t.Fatalf("%s: wrong granularity shape", tc.resource)
		}
	}

	// Error paths.
	for _, tc := range []struct {
		name   string
		body   string
		status int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"missing plan", `{"schema":"tpch"}`, http.StatusBadRequest},
		{"bad resource", `{"resource":"gpu","plan":{"version":1}}`, http.StatusBadRequest},
		{"bad plan", `{"plan":{"version":1,"root":{"kind":"Sort"}}}`, http.StatusBadRequest},
		{"no model", `{"schema":"tpcds","plan":` + string(encoded) + `}`, http.StatusNotFound},
	} {
		resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	// Introspection endpoints.
	var models []serve.ModelInfo
	mresp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(mresp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if len(models) != 2 {
		t.Fatalf("/models returned %d entries", len(models))
	}
	var metrics serve.Metrics
	xresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(xresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	xresp.Body.Close()
	if metrics.Requests == 0 || metrics.Cache.Misses == 0 {
		t.Fatalf("metrics not counting: %+v", metrics)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after publish: %s", hresp.Status)
	}
}

// TestPublishFileRoundTrip persists an estimator with core's Save and
// publishes it from disk, checking served predictions survive.
func TestPublishFileRoundTrip(t *testing.T) {
	svc := newService(t, serve.Options{})
	var buf bytes.Buffer
	if err := cpuEst.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/cpu.json"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := svc.Registry().PublishFile("tpch", path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Resource != "CPU" {
		t.Fatalf("loaded resource %q", info.Resource)
	}
	p := testPlans[0]
	resp, err := svc.Estimate(context.Background(), serve.Request{Schema: "tpch", Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	want := cpuEst.PredictPlan(p)
	if math.Abs(resp.Total-want) > 0.05*(want+1) {
		t.Fatalf("persisted model drifted: %v vs %v", resp.Total, want)
	}
	if _, err := svc.Registry().PublishFile("x", dir+"/missing.json"); err == nil {
		t.Fatal("missing model file accepted")
	}
}

// TestHTTPPublish hot-swaps a model through POST /models and checks
// subsequent estimates route to the new version and paths stay
// confined to the configured model directory.
func TestHTTPPublish(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t, serve.Options{ModelDir: dir})
	first := svc.Registry().Publish("tpch", cpuEst)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	var buf bytes.Buffer
	if err := cpuEst.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/cpu.json", buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]string{"schema": "tpch", "path": "cpu.json"})
	resp, err := http.Post(ts.URL+"/models", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info serve.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.Version <= first.Version {
		t.Fatalf("publish: status %s version %d (first %d)", resp.Status, info.Version, first.Version)
	}
	out, err := svc.Estimate(context.Background(), serve.Request{Schema: "tpch", Plan: testPlans[0]})
	if err != nil {
		t.Fatal(err)
	}
	if out.Model.Version != info.Version {
		t.Fatalf("estimate routed to version %d, want %d", out.Model.Version, info.Version)
	}

	for _, tc := range []struct {
		name string
		body string
	}{
		{"bad json", `{`},
		{"missing path", `{"schema":"tpch"}`},
		{"missing file", `{"path":"nonexistent-model.json"}`},
		{"absolute path", `{"path":"/etc/passwd"}`},
		{"escaping path", `{"path":"../cpu.json"}`},
	} {
		resp, err := http.Post(ts.URL+"/models", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// Without a model directory the endpoint is disabled outright.
	off := newService(t, serve.Options{})
	tsOff := httptest.NewServer(off.Handler())
	t.Cleanup(tsOff.Close)
	resp, err = http.Post(tsOff.URL+"/models", "application/json",
		bytes.NewReader([]byte(`{"path":"cpu.json"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("publish without model dir: status %d, want 403", resp.StatusCode)
	}
}

// TestHTTPPublishRejectsOutOfRangeModel: POST /models with a model
// file whose inputs name a feature that does not exist answers 400,
// and the service keeps serving the version it had.
func TestHTTPPublishRejectsOutOfRangeModel(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t, serve.Options{ModelDir: dir})
	first := svc.Registry().Publish("tpch", cpuEst)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	var buf bytes.Buffer
	if err := cpuEst.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var model map[string]any
	if err := json.Unmarshal(buf.Bytes(), &model); err != nil {
		t.Fatal(err)
	}
	for _, op := range model["ops"].([]any) {
		for _, c := range op.(map[string]any)["candidates"].([]any) {
			if inputs := c.(map[string]any)["inputs"].([]any); len(inputs) > 0 {
				inputs[0] = 999
			}
		}
	}
	bad, err := json.Marshal(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/bad.json", bad, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/models", "application/json",
		bytes.NewReader([]byte(`{"schema":"tpch","path":"bad.json"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("publish of an out-of-range model: status %d, want 400", resp.StatusCode)
	}
	out, err := svc.Estimate(context.Background(), serve.Request{Schema: "tpch", Plan: testPlans[0]})
	if err != nil {
		t.Fatal(err)
	}
	if out.Model.Version != first.Version {
		t.Fatalf("estimate served by version %d, want %d", out.Model.Version, first.Version)
	}
}
