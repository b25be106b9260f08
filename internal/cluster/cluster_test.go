package cluster_test

// Integration tests for the distributed serving tier, in-process: a
// router over real serve.Service replicas with real stream listeners.
// They pin the tier's contracts — responses byte-identical to
// single-node across every transport, schema affinity, the
// version-keyed router cache never serving a stale model, graceful
// degradation when a replica dies, and fleet convergence to one
// retrained model through the shared store.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/workload"
)

var (
	setupOnce sync.Once
	cpuEst    *core.Estimator
	ioEst     *core.Estimator
	testPlans []*plan.Plan
)

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

// testReplica is one in-process resserve: a service with both
// estimators on the wildcard schema, a stream listener, and an HTTP
// listener — the same surfaces a real replica process exposes. A
// replica started without a stream listener (nil ss) is answered over
// POST /estimate.
type testReplica struct {
	svc *serve.Service
	ss  *stream.Server
	hs  *httptest.Server
}

func newTestReplica(t testing.TB) *testReplica {
	t.Helper()
	setup(t)
	reg := serve.NewRegistry()
	reg.Publish("", cpuEst)
	reg.Publish("", ioEst)
	return newTestReplicaWith(t, reg)
}

// newTestReplicaWith builds a replica over an existing registry.
// Replicas sharing one registry carry bit-identical model metadata
// (version, loaded_at) — the in-process stand-in for a fleet restored
// from the same store snapshot, which is what makes byte-identity
// comparisons across replicas meaningful.
func newTestReplicaWith(t testing.TB, reg *serve.Registry) *testReplica {
	t.Helper()
	return newTestReplicaStream(t, reg, stream.Options{})
}

// newTestReplicaStream is newTestReplicaWith with the stream listener's
// options; their Service is the replica's.
func newTestReplicaStream(t testing.TB, reg *serve.Registry, so stream.Options) *testReplica {
	t.Helper()
	setup(t)
	svc := serve.New(serve.Options{Registry: reg})
	so.Service = svc
	ss, err := stream.Start("127.0.0.1:0", so)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetStreamAddr(ss.Addr())
	hs := httptest.NewServer(svc.Handler())
	tr := &testReplica{svc: svc, ss: ss, hs: hs}
	t.Cleanup(tr.kill)
	return tr
}

// kill tears the replica down abruptly — the process-death stand-in.
// Idempotent.
func (tr *testReplica) kill() {
	tr.hs.Close()
	if tr.ss != nil {
		tr.ss.Close()
	}
	tr.svc.Close()
}

func newRouter(t testing.TB, reps []*testReplica, mut func(*cluster.Options)) (*cluster.Router, *httptest.Server) {
	t.Helper()
	opts := cluster.Options{
		PollInterval: time.Hour, // tests poll explicitly via PollNow
		DialTimeout:  2 * time.Second,
	}
	for _, r := range reps {
		opts.Replicas = append(opts.Replicas, r.hs.URL)
	}
	if mut != nil {
		mut(&opts)
	}
	rt, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(hs.Close)
	return rt, hs
}

func estimateBody(t testing.TB, schema string, p *plan.Plan, resources ...string) []byte {
	t.Helper()
	pj, err := plan.EncodeJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	req := stream.Request{Schema: schema, Plan: pj}
	if len(resources) == 1 {
		req.Resource = resources[0]
	} else if len(resources) > 1 {
		req.Resources = resources
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func post(t testing.TB, url, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func postOK(t testing.TB, url, path string, body []byte) []byte {
	t.Helper()
	status, out := post(t, url, path, body)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, status, out)
	}
	return out
}

// selfJoinPlan is a five-operator plan whose two scans are one
// (operator, feature vector) pair: the same table read twice under one
// join — the one input shape where how a path counts cache probes
// shows. rows sizes the table, so each value is a plan no cache holds
// an operator of.
func selfJoinPlan(rows float64) *plan.Plan {
	scan := func() *plan.Node {
		n := plan.NewLeaf(plan.TableScan, "orders")
		n.TableRows, n.TablePages, n.TableCols = rows, rows/50, 9
		n.Out = plan.Cardinality{Rows: rows, Width: 64}
		n.EstOut = n.Out
		return n
	}
	join := plan.NewJoin(plan.MergeJoin, scan(), scan())
	join.Out = plan.Cardinality{Rows: rows, Width: 128}
	agg := plan.NewUnary(plan.HashAggregate, join)
	agg.Out = plan.Cardinality{Rows: rows / 100, Width: 32}
	top := plan.NewUnary(plan.Sort, agg)
	top.Out = agg.Out
	join.EstOut, agg.EstOut, top.EstOut = join.Out, agg.Out, top.Out
	return plan.New(top, "self-join")
}

// TestRouterByteIdenticalToSingleNode pins the tier's core contract:
// a client moved from one resserve to the router sees byte-identical
// responses — single-resource, multi-resource, batch, and the
// streaming transport. Both sides are warmed first (a first and a
// second serving of the same plan differ in their cache counters) and
// the router cache is disabled so the forwarding path itself is what's
// measured. A self-join is compared on its first serving too: its
// counters are where HTTP and the stream the router forwards over
// could count differently.
func TestRouterByteIdenticalToSingleNode(t *testing.T) {
	setup(t)
	// One registry behind every node: model metadata (version,
	// loaded_at) embedded in responses is then identical, as it is for
	// a real fleet restored from one store snapshot.
	reg := serve.NewRegistry()
	reg.Publish("", cpuEst)
	reg.Publish("", ioEst)
	single := newTestReplicaWith(t, reg)
	fleet := []*testReplica{newTestReplicaWith(t, reg), newTestReplicaWith(t, reg)}
	rt, rhs := newRouter(t, fleet, func(o *cluster.Options) { o.CacheEntries = -1 })

	schemas := []string{"", "alpha", "beta", "gamma"}
	type tc struct {
		name string
		body []byte
	}
	var cases []tc
	for i, p := range testPlans[:4] {
		schema := schemas[i%len(schemas)]
		cases = append(cases,
			tc{fmt.Sprintf("cpu/%s/%d", schema, i), estimateBody(t, schema, p, "cpu")},
			tc{fmt.Sprintf("multi/%s/%d", schema, i), estimateBody(t, schema, p, "cpu", "io")},
		)
	}
	// Warm both sides, then compare second servings.
	for _, c := range cases {
		postOK(t, single.hs.URL, "/estimate", c.body)
		postOK(t, rhs.URL, "/estimate", c.body)
	}
	for _, c := range cases {
		want := postOK(t, single.hs.URL, "/estimate", c.body)
		got := postOK(t, rhs.URL, "/estimate", c.body)
		if !bytes.Equal(want, got) {
			t.Errorf("%s: router response differs from single-node\nsingle: %s\nrouter: %s", c.name, want, got)
		}
	}

	for _, serving := range []string{"cold", "warm"} {
		body := estimateBody(t, "alpha", selfJoinPlan(1.5e6), "cpu", "io")
		want := postOK(t, single.hs.URL, "/estimate", body)
		got := postOK(t, rhs.URL, "/estimate", body)
		if !bytes.Equal(want, got) {
			t.Errorf("%s self-join: router response differs from single-node\nsingle: %s\nrouter: %s", serving, want, got)
		}
	}

	// Batch: proxied over HTTP, still byte-identical.
	var plansJSON []json.RawMessage
	for _, p := range testPlans[:4] {
		pj, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		plansJSON = append(plansJSON, pj)
	}
	batchBody, err := json.Marshal(map[string]any{"schema": "alpha", "resource": "cpu", "plans": plansJSON})
	if err != nil {
		t.Fatal(err)
	}
	postOK(t, single.hs.URL, "/estimate/batch", batchBody)
	postOK(t, rhs.URL, "/estimate/batch", batchBody)
	wantBatch := postOK(t, single.hs.URL, "/estimate/batch", batchBody)
	gotBatch := postOK(t, rhs.URL, "/estimate/batch", batchBody)
	if !bytes.Equal(wantBatch, gotBatch) {
		t.Errorf("batch response differs from single-node\nsingle: %s\nrouter: %s", wantBatch, gotBatch)
	}

	// Streaming surface: the router's framed listener answers with the
	// same bytes as single-node HTTP.
	addr, err := rt.StartStream("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := stream.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, c := range cases {
		want := postOK(t, single.hs.URL, "/estimate", c.body)
		got, err := cl.EstimateBytes(context.Background(), c.body)
		if err != nil {
			t.Fatalf("%s: stream estimate: %v", c.name, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: stream response differs from single-node HTTP\nhttp:   %s\nstream: %s", c.name, want, got)
		}
	}

	for _, serving := range []string{"cold", "warm"} {
		body := estimateBody(t, "beta", selfJoinPlan(3e6), "cpu")
		want := postOK(t, single.hs.URL, "/estimate", body)
		got, err := cl.EstimateBytes(context.Background(), body)
		if err != nil {
			t.Fatalf("%s self-join: stream estimate: %v", serving, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s self-join: stream response differs from single-node HTTP\nhttp:   %s\nstream: %s", serving, want, got)
		}
	}

	// Explain is proxied, not streamed; it too must match single-node.
	explainBody := cases[0].body
	wantExp := postOK(t, single.hs.URL, "/estimate?explain=1", explainBody)
	gotExp := postOK(t, rhs.URL, "/estimate?explain=1", explainBody)
	if !bytes.Equal(wantExp, gotExp) {
		t.Errorf("explain response differs from single-node")
	}
}

// TestRouterSchemaAffinity pins placement: every request for one
// schema lands on the same replica (no spillover while the fleet is
// healthy), so per-schema working sets stay hot.
func TestRouterSchemaAffinity(t *testing.T) {
	fleet := []*testReplica{newTestReplica(t), newTestReplica(t), newTestReplica(t)}
	rt, rhs := newRouter(t, fleet, func(o *cluster.Options) { o.CacheEntries = -1 })

	const perSchema = 5
	for s := 0; s < 8; s++ {
		schema := fmt.Sprintf("w%03d", s)
		body := estimateBody(t, schema, testPlans[s%len(testPlans)], "cpu")
		before := replicaRequests(rt)
		for i := 0; i < perSchema; i++ {
			postOK(t, rhs.URL, "/estimate", body)
		}
		after := replicaRequests(rt)
		served := 0
		for name, n := range after {
			if delta := n - before[name]; delta > 0 {
				served++
				if delta != perSchema {
					t.Errorf("schema %s: replica %s served %d/%d requests", schema, name, delta, perSchema)
				}
			}
		}
		if served != 1 {
			t.Errorf("schema %s: %d replicas served it, want exactly 1", schema, served)
		}
	}
	m := rt.Metrics()
	if m.Decisions.Spillover != 0 || m.Decisions.Shed != 0 {
		t.Errorf("healthy fleet made %d spillover / %d shed decisions, want 0/0", m.Decisions.Spillover, m.Decisions.Shed)
	}
	if m.Decisions.Affinity == 0 {
		t.Error("no affinity decisions recorded")
	}
}

func replicaRequests(rt *cluster.Router) map[string]uint64 {
	out := make(map[string]uint64)
	for _, r := range rt.Metrics().Replicas {
		out[r.Name] = r.Requests
	}
	return out
}

// TestRouterCacheNeverServesStaleModel pins the router cache's
// version-token guarantee: a repeat request is served from the router
// cache, but after the fleet publishes a new model version the entry
// is dead — the next request reaches the replica and reflects the new
// version.
func TestRouterCacheNeverServesStaleModel(t *testing.T) {
	rep := newTestReplica(t)
	rt, rhs := newRouter(t, []*testReplica{rep}, nil)

	body := estimateBody(t, "tpch", testPlans[0], "cpu")
	first := postOK(t, rhs.URL, "/estimate", body)
	second := postOK(t, rhs.URL, "/estimate", body)
	if !bytes.Equal(first, second) {
		t.Fatal("cached response differs from original")
	}
	m := rt.Metrics()
	if m.Cache.Hits != 1 {
		t.Fatalf("cache hits = %d after a repeat request, want 1", m.Cache.Hits)
	}

	// Roll the model: republish bumps the version, which changes the
	// replica's version vector and thus the router's token.
	rep.svc.Registry().Publish("", cpuEst)
	rt.PollNow()
	third := postOK(t, rhs.URL, "/estimate", body)
	if m2 := rt.Metrics(); m2.Cache.Hits != 1 {
		t.Fatalf("cache served a stale entry after model roll (hits %d, want still 1)", m2.Cache.Hits)
	}
	type modelResp struct {
		Model struct {
			Version uint64 `json:"version"`
		} `json:"model"`
	}
	var resp, respOld modelResp
	if err := json.Unmarshal(third, &resp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(first, &respOld); err != nil {
		t.Fatal(err)
	}
	if resp.Model.Version <= respOld.Model.Version {
		t.Fatalf("post-roll response still carries model v%d (pre-roll v%d)",
			resp.Model.Version, respOld.Model.Version)
	}
}

// TestRouterCacheDropsUnpersistedRoll: a replica with a store attached
// publishes a model whose snapshot write fails. That model is in no
// snapshot, so the replica's version token still moves, and the router
// answers with what the replica now serves rather than its entry from
// the replaced model.
func TestRouterCacheDropsUnpersistedRoll(t *testing.T) {
	setup(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	reg.AttachStore(st, nil)
	reg.Publish("", cpuEst)
	snap := reg.Publish("", ioEst).Snapshot
	rep := newTestReplicaWith(t, reg)
	rt, rhs := newRouter(t, []*testReplica{rep}, nil)

	body := estimateBody(t, "tpch", testPlans[0], "cpu")
	first := postOK(t, rhs.URL, "/estimate", body)
	if again := postOK(t, rhs.URL, "/estimate", body); !bytes.Equal(again, first) {
		t.Fatal("cached response differs from original")
	}

	// A non-empty directory where the next snapshot would be renamed
	// into place fails its write.
	if err := os.MkdirAll(filepath.Join(dir, fmt.Sprintf("v%010d", snap+1), "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if info := reg.Publish("", cpuEst); info.Snapshot != 0 {
		t.Fatalf("publish with a blocked store claimed snapshot v%d", info.Snapshot)
	}
	rt.PollNow()
	// The second serving warms the replica: every later answer for body
	// is these bytes.
	postOK(t, rep.hs.URL, "/estimate", body)
	want := postOK(t, rep.hs.URL, "/estimate", body)
	if bytes.Equal(want, first) {
		t.Fatal("the replica still answers as before the publish")
	}
	if got := postOK(t, rhs.URL, "/estimate", body); !bytes.Equal(got, want) {
		t.Fatalf("router answered\n%s\nwant the replica's current\n%s", got, want)
	}
}

// TestRouterFanoutCountsUnpersistedPublish: a POST /models fan-out
// over two store-attached replicas, one of whose snapshot writes fails,
// is a conflict — that replica serves the upload in no snapshot and
// answers 500, so the router does not count it as applied.
func TestRouterFanoutCountsUnpersistedPublish(t *testing.T) {
	setup(t)
	models := t.TempDir()
	f, err := os.Create(filepath.Join(models, "cpu.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cpuEst.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var reps []*testReplica
	for i := range 2 {
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reg := serve.NewRegistry()
		reg.AttachStore(st, nil)
		reg.Publish("", cpuEst)
		snap := reg.Publish("", ioEst).Snapshot
		if i == 1 {
			// A non-empty directory where the next snapshot would be
			// renamed into place fails its write.
			if err := os.MkdirAll(filepath.Join(dir, fmt.Sprintf("v%010d", snap+1), "blocker"), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		svc := serve.New(serve.Options{Registry: reg, ModelDir: models})
		tr := &testReplica{svc: svc, hs: httptest.NewServer(svc.Handler())}
		t.Cleanup(tr.kill)
		reps = append(reps, tr)
	}
	_, rhs := newRouter(t, reps, nil)
	if r := postRefused(t, rhs.URL, "/models", "", []byte(`{"schema":"","path":"cpu.json"}`)); r.status != http.StatusConflict || r.Code != "conflict" {
		t.Fatalf("fan-out with one unpersisted replica answered %d %q: %s", r.status, r.Code, r.Error)
	}
}

// TestRouterCacheKeepsItsOwnCopy: the bytes a forward returns are its
// caller's — off a replica stream they share one allocation with the
// rest of their read burst — so the router cache files a copy of them.
// Overwriting what the forward returned must not reach the answer the
// cache serves next.
func TestRouterCacheKeepsItsOwnCopy(t *testing.T) {
	rep := newTestReplica(t)
	rt, _ := newRouter(t, []*testReplica{rep}, nil)
	body := estimateBody(t, "tpch", testPlans[0], "cpu")
	// The second serving warms the replica: every later answer for body
	// is these bytes.
	postOK(t, rep.hs.URL, "/estimate", body)
	want := postOK(t, rep.hs.URL, "/estimate", body)

	ctx := context.Background()
	got, err := rt.Estimate(ctx, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("forward answered %s, the replica %s", got, want)
	}
	if n := rep.ss.Stats().Requests; n != 1 {
		t.Fatalf("replica stream saw %d requests, want the one forward", n)
	}
	for i := range got {
		got[i] = '#'
	}
	again, err := rt.Estimate(ctx, body)
	if err != nil {
		t.Fatal(err)
	}
	if m := rt.Metrics(); m.Cache.Hits != 1 {
		t.Fatalf("cache hits = %d after a repeat request, want 1", m.Cache.Hits)
	}
	if !bytes.Equal(again, want) {
		t.Fatalf("cache served %s after the forward's bytes were overwritten, want %s", again, want)
	}
}

// TestRouterDropsFillThatRacedAPoll: the replica swaps models and a
// /healthz poll lands while a forward is in flight, so the answer — the
// old model's — comes back to a router that already holds the new
// token. Filing it under that token would serve the old model's answer
// as the new one's until eviction; it must be filed under nothing. The
// replica advertises no stream listener, so the forward is an HTTP POST
// the test can stand in the middle of.
func TestRouterDropsFillThatRacedAPoll(t *testing.T) {
	setup(t)
	svc := serve.New(serve.Options{})
	t.Cleanup(svc.Close)
	svc.Registry().Publish("", cpuEst)
	var midForward func()
	handler := svc.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/estimate" || midForward == nil {
			handler.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r) // answered by the model serving now
		midForward()
		midForward = nil
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(hs.Close)
	rt, rhs := newRouter(t, []*testReplica{{hs: hs}}, nil)

	var swapped serve.ModelInfo
	midForward = func() {
		swapped = svc.Registry().Publish("", cpuEst)
		rt.PollNow()
	}
	body := estimateBody(t, "tpch", testPlans[0], "cpu")
	version := func(resp []byte) uint64 {
		var r struct {
			Model serve.ModelInfo `json:"model"`
		}
		if err := json.Unmarshal(resp, &r); err != nil {
			t.Fatal(err)
		}
		return r.Model.Version
	}
	if v := version(postOK(t, rhs.URL, "/estimate", body)); v >= swapped.Version {
		t.Fatalf("the raced forward was answered by v%d, want the model before v%d", v, swapped.Version)
	}
	if v := version(postOK(t, rhs.URL, "/estimate", body)); v != swapped.Version {
		t.Fatalf("repeat after the swap answered by v%d, want v%d", v, swapped.Version)
	}
	if m := rt.Metrics(); m.Cache.Hits != 0 {
		t.Fatalf("the raced answer was cached and served: %+v", m.Cache)
	}
	if v := version(postOK(t, rhs.URL, "/estimate", body)); v != swapped.Version {
		t.Fatalf("third serving answered by v%d, want v%d", v, swapped.Version)
	}
	if m := rt.Metrics(); m.Cache.Hits != 1 {
		t.Fatalf("an answer that raced nothing was not cached: %+v", m.Cache)
	}
}

// TestRouterKillReplicaDegradesGracefully pins failover: when a
// replica dies, its schemas spill to the survivor and clients keep
// getting answers — no errors once routing state catches up.
func TestRouterKillReplicaDegradesGracefully(t *testing.T) {
	fleet := []*testReplica{newTestReplica(t), newTestReplica(t)}
	rt, rhs := newRouter(t, fleet, func(o *cluster.Options) {
		o.CacheEntries = -1
		o.DialTimeout = 500 * time.Millisecond
	})

	// Cover both replicas: four schemas each replica is primary for.
	// The ring is keyed by the replicas' addresses, which change from
	// run to run, so the schemas are picked by placement, not fixed.
	var bodies [][]byte
	perReplica := map[string]int{}
	for s := 0; len(bodies) < 8; s++ {
		schema := fmt.Sprintf("w%03d", s)
		if primary := rt.Primary(schema); perReplica[primary] < 4 {
			perReplica[primary]++
			bodies = append(bodies, estimateBody(t, schema, testPlans[s%len(testPlans)], "cpu"))
			postOK(t, rhs.URL, "/estimate", bodies[len(bodies)-1])
		}
	}

	fleet[1].kill()
	rt.PollNow()

	for _, body := range bodies {
		status, out := post(t, rhs.URL, "/estimate", body)
		if status != http.StatusOK {
			t.Errorf("%.40s after replica kill: status %d: %s", body, status, out)
		}
	}
	m := rt.Metrics()
	if m.Decisions.Spillover == 0 {
		t.Error("no spillover decisions after killing a replica that owned schemas")
	}
	healthy := 0
	for _, r := range m.Replicas {
		if r.Healthy {
			healthy++
		}
	}
	if healthy != 1 {
		t.Errorf("%d healthy replicas after kill, want 1", healthy)
	}

	// Fleet health reflects the degradation.
	resp, err := http.Get(rhs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var fh struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fh); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fh.Status != "degraded" {
		t.Errorf("fleet status %q after kill, want degraded", fh.Status)
	}
}

// TestRouterMetricsSurfaces pins both metric renderings: the JSON
// snapshot and the Prometheus exposition carrying the resrouter_*
// families, each family one block under one header however many
// replicas it has samples for.
func TestRouterMetricsSurfaces(t *testing.T) {
	setup(t)
	reg := serve.NewRegistry()
	reg.Publish("", cpuEst)
	reps := []*testReplica{newTestReplicaWith(t, reg), newTestReplicaWith(t, reg)}
	_, rhs := newRouter(t, reps, nil)
	postOK(t, rhs.URL, "/estimate", estimateBody(t, "tpch", testPlans[0], "cpu"))

	var m cluster.Metrics
	resp, err := http.Get(rhs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(m.Replicas) != 2 || m.Replicas[0].Requests+m.Replicas[1].Requests != 1 {
		t.Fatalf("JSON metrics missing replica counters: %+v", m)
	}
	if !m.FleetConsistent {
		t.Error("fleet of replicas sharing one registry reported inconsistent")
	}

	req, _ := http.NewRequest(http.MethodGet, rhs.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	fams := parseExposition(t, string(text))
	for _, family := range []string{
		"resrouter_replica_requests_total",
		"resrouter_replica_healthy",
		"resrouter_routing_decisions_total",
		"resrouter_cache_hit_ratio",
	} {
		if fams[family] == nil {
			t.Errorf("Prometheus exposition missing %s", family)
		}
	}
	for _, r := range m.Replicas {
		if want := fmt.Sprintf("resrouter_replica_inflight{replica=%q} 0\n", r.Name); !strings.Contains(string(text), want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
}

// TestFleetRetrainConvergence pins the distributed feedback loop: a
// forwarding replica logs observations locally (no retrainer of its
// own) and ships the segments to the designated retrainer; drift
// triggers a retrain there; the retrained model lands in the shared
// store; and a follower replica syncing from the store converges to
// the retrainer's exact version vector.
func TestFleetRetrainConvergence(t *testing.T) {
	setup(t)
	storeDir := t.TempDir()

	// Retrainer: store-attached registry, serve.Service with the
	// feedback loop, publishing retrains into the store.
	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	regR := serve.NewRegistry()
	regR.AttachStore(st1, nil)
	regR.Publish("tpch", cpuEst) // stale model, snapshot v1
	loop, err := feedback.New(feedback.Options{
		Dir:             t.TempDir(),
		Publisher:       regR,
		MinObservations: 64,
		DriftThreshold:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	retrainerSvc := serve.New(serve.Options{Registry: regR, Feedback: loop})
	defer retrainerSvc.Close()
	retrainerHS := httptest.NewServer(retrainerSvc.Handler())
	defer retrainerHS.Close()

	// Forwarding replica: observation log only — Publisher deliberately
	// nil, so this replica never retrains on its own.
	obsDir := t.TempDir()
	rloop, err := feedback.New(feedback.Options{Dir: obsDir})
	if err != nil {
		t.Fatal(err)
	}
	defer rloop.Close()
	fw, err := cluster.NewForwarder(cluster.ForwarderOptions{
		Dir:      obsDir,
		Target:   retrainerHS.URL,
		Interval: time.Hour, // tests forward explicitly
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	// A drifted regime: fresh executed plans whose CPU actuals are 4x
	// what the stale model was trained on.
	cfg := workload.DefaultConfig()
	cfg.N = 120
	cfg.Seed = 42
	qs := workload.GenTPCH(cfg)
	eng := engine.New(nil)
	for _, q := range qs {
		eng.Run(q.Plan)
		q.Plan.Walk(func(n *plan.Node) { n.Actual.CPU *= 4 })
		if err := rloop.Observe(&feedback.Observation{Schema: "tpch", Resource: plan.CPUTime, Plan: q.Plan}); err != nil {
			t.Fatal(err)
		}
	}

	n, err := fw.ForwardNow()
	if err != nil {
		t.Fatal(err)
	}
	if n != cfg.N {
		t.Fatalf("forwarded %d observations, want %d", n, cfg.N)
	}
	// Forwarding is idempotent per byte: a second pass with no new
	// segments ships nothing.
	if n2, _ := fw.ForwardNow(); n2 != 0 {
		t.Fatalf("second forward pass re-shipped %d observations", n2)
	}

	loop.Quiesce()
	vecR := regR.VersionVector()
	if len(vecR) != 1 || vecR[0].Snapshot < 2 {
		t.Fatalf("retrainer did not publish a retrained snapshot: %+v", vecR)
	}

	// Follower: separate store handle on the same directory, read-only
	// sync. It must converge to the retrainer's exact version vector.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	regF := serve.NewRegistry()
	regF.AttachStore(st2, nil)
	if _, err := regF.SyncFromStore(); err != nil {
		t.Fatal(err)
	}
	sumR := serve.VersionChecksum(regR.VersionVector())
	sumF := serve.VersionChecksum(regF.VersionVector())
	if sumR != sumF {
		t.Fatalf("follower did not converge:\nretrainer %s %+v\nfollower  %s %+v",
			sumR, regR.VersionVector(), sumF, regF.VersionVector())
	}
	// A later sync with nothing new publishes nothing.
	if infos, _ := regF.SyncFromStore(); len(infos) != 0 {
		t.Fatalf("idle sync republished %d models", len(infos))
	}
}
