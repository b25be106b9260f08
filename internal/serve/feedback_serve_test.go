package serve_test

// Serving-side tests of the online feedback loop and registry rollback:
// the end-to-end drift → retrain → hot-swap scenario over HTTP, the
// reject-if-worse guard against poisoned actuals, rollback semantics
// (cache entries from rolled-back versions must never serve), and cache
// consistency under rapid hot-swaps (run with -race).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

var (
	altOnce sync.Once
	cpuEst2 *core.Estimator // deliberately weaker model: predictions differ from cpuEst
)

func altSetup(t testing.TB) {
	t.Helper()
	setup(t)
	altOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Mart.Iterations = 12
		var err error
		cpuEst2, err = core.Train(trainPlans, plan.CPUTime, nil, cfg)
		if err != nil {
			panic(err)
		}
	})
}

// driftedWorkload generates executed plans whose actuals are scaled by
// factor — a resource-consumption regime the serving model never saw.
func driftedWorkload(t testing.TB, seed uint64, n int, factor float64) []*plan.Plan {
	t.Helper()
	qs := workload.GenTPCH(workload.Config{Seed: seed, N: n, SFs: []float64{1, 2, 4}, Z: 2, Corr: 0.85})
	eng := engine.New(nil)
	plans := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		eng.Run(q.Plan)
		q.Plan.Walk(func(nd *plan.Node) { nd.Actual.CPU *= factor })
		plans[i] = q.Plan
	}
	return plans
}

func meanCPUErr(est *core.Estimator, plans []*plan.Plan) float64 {
	var sum float64
	for _, p := range plans {
		sum += stats.L1RelErr(est.PredictPlan(p), p.TotalActual().CPU)
	}
	return sum / float64(len(plans))
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func feedbackTestOptions(reg *serve.Registry, dir string) feedback.Options {
	return feedback.Options{
		Dir:             dir,
		Publisher:       reg,
		MinObservations: 64,
	}
}

// TestFeedbackEndToEndHTTP is the acceptance scenario: serve a
// deliberately stale model, stream drifted observations through POST
// /observe, and the subsystem must auto-retrain, validate and publish a
// new version — improving relative error on the drifted workload by at
// least 2x — with the gauges visible in /metrics.
func TestFeedbackEndToEndHTTP(t *testing.T) {
	setup(t)
	// The stale model: trained on the unscaled regime, baseline stamped
	// on its own training workload (a private copy so the shared
	// estimator stays untouched).
	staleCopy := *cpuEst
	staleCopy.SetBaseline(trainPlans)
	stale := &staleCopy

	reg := serve.NewRegistry()
	loop, err := feedback.New(feedbackTestOptions(reg, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	svc := serve.New(serve.Options{Registry: reg, Feedback: loop})
	t.Cleanup(svc.Close)
	first := reg.Publish("tpch", stale)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	drifted := driftedWorkload(t, 77, 120, 4)
	for _, p := range drifted {
		encoded, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		// Full protocol: ask for the estimate first, then report the
		// served prediction together with the measured actuals.
		resp, body := postJSON(t, ts.URL+"/estimate", map[string]any{
			"schema": "tpch", "resource": "cpu", "plan": json.RawMessage(encoded),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate: %s: %s", resp.Status, body)
		}
		var est serve.Response
		if err := json.Unmarshal(body, &est); err != nil {
			t.Fatal(err)
		}
		resp, body = postJSON(t, ts.URL+"/observe", map[string]any{
			"schema": "tpch", "resource": "cpu",
			"model_version": est.Model.Version, "predicted": est.Total,
			"plan": json.RawMessage(encoded),
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe: %s: %s", resp.Status, body)
		}
	}
	loop.Quiesce()

	m, ok := reg.Lookup("tpch", plan.CPUTime)
	if !ok || m.Info.Version <= first.Version {
		t.Fatalf("no retrained model published (serving v%d, started at v%d)", m.Info.Version, first.Version)
	}
	staleErr := meanCPUErr(stale, drifted)
	newErr := meanCPUErr(m.Est, drifted)
	if staleErr < 1 {
		t.Fatalf("drift setup broken: stale error only %.3f", staleErr)
	}
	if newErr*2 > staleErr {
		t.Fatalf("post-swap error not ≥2x better: stale %.3f, new %.3f", staleErr, newErr)
	}

	// Served estimates now route to the retrained version.
	out, err := svc.Estimate(t.Context(), serve.Request{Schema: "tpch", Plan: drifted[0]})
	if err != nil {
		t.Fatal(err)
	}
	if out.Model.Version != m.Info.Version {
		t.Fatalf("estimate served v%d, registry at v%d", out.Model.Version, m.Info.Version)
	}

	// The per-model error gauges surface through /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics serve.Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if len(metrics.Feedback) != 1 {
		t.Fatalf("metrics carry %d feedback routes, want 1", len(metrics.Feedback))
	}
	fs := metrics.Feedback[0]
	if fs.Schema != "tpch" || fs.Resource != "CPU" || fs.Retrains < 1 || fs.Rejections != 0 {
		t.Fatalf("feedback gauges wrong: %+v", fs)
	}
	if fs.Baseline == nil {
		t.Fatal("metrics missing the serving model's baseline")
	}
}

// TestFeedbackGuardBlocksGarbageHTTP streams observations whose actuals
// are pure noise: drift fires, the retrainer runs, and the
// reject-if-worse guard must keep the incumbent serving.
func TestFeedbackGuardBlocksGarbageHTTP(t *testing.T) {
	setup(t)
	reg := serve.NewRegistry()
	loop, err := feedback.New(feedbackTestOptions(reg, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	svc := serve.New(serve.Options{Registry: reg, Feedback: loop})
	t.Cleanup(svc.Close)
	first := reg.Publish("tpch", cpuEst)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	garbage := driftedWorkload(t, 78, 120, 1)
	rng := rand.New(rand.NewSource(5))
	for _, p := range garbage {
		nodes := p.Nodes()
		total := math.Pow(10, rng.Float64()*6) // log-uniform, feature-independent
		for _, n := range nodes {
			n.Actual.CPU = total / float64(len(nodes))
		}
		encoded, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/observe", map[string]any{
			"schema": "tpch", "resource": "cpu", "plan": json.RawMessage(encoded),
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe: %s: %s", resp.Status, body)
		}
	}
	loop.Quiesce()

	m, ok := reg.Lookup("tpch", plan.CPUTime)
	if !ok || m.Info.Version != first.Version {
		t.Fatalf("garbage actuals replaced the model: serving v%d, want v%d", m.Info.Version, first.Version)
	}
	if m.Est != cpuEst {
		t.Fatal("incumbent estimator replaced")
	}
	snap := loop.Snapshot()
	if len(snap) != 1 || snap[0].Rejections < 1 || snap[0].Retrains != 0 {
		t.Fatalf("guard did not reject: %+v", snap)
	}
}

func TestHTTPObserveErrors(t *testing.T) {
	// Without a loop the endpoint is disabled outright.
	off := newService(t, serve.Options{})
	tsOff := httptest.NewServer(off.Handler())
	t.Cleanup(tsOff.Close)
	resp, _ := postJSON(t, tsOff.URL+"/observe", map[string]any{"schema": "tpch"})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("observe without loop: %d, want 403", resp.StatusCode)
	}

	loop, err := feedback.New(feedback.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loop.Close() })
	svc := newService(t, serve.Options{Feedback: loop})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	encoded, err := plan.EncodeJSON(testPlans[0])
	if err != nil {
		t.Fatal(err)
	}
	// A plan stripped of actuals is useless to the retrainer: rejected.
	stripped := driftedWorkload(t, 79, 1, 0)[0]
	strippedEnc, err := plan.EncodeJSON(stripped)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		body   string
		status int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"missing plan", `{"schema":"tpch"}`, http.StatusBadRequest},
		{"bad resource", `{"resource":"gpu","plan":` + string(encoded) + `}`, http.StatusBadRequest},
		{"no actuals", `{"resource":"cpu","plan":` + string(strippedEnc) + `}`, http.StatusBadRequest},
		// Regression: a negative prediction used to be ingested and poison
		// the drift windows; it must be the client's 400, not a 500.
		{"negative predicted", `{"resource":"cpu","predicted":-3,"plan":` + string(encoded) + `}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/observe", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		var envelope struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Code == "" {
			t.Fatalf("%s: error body %q carries no stable code", tc.name, raw)
		}
	}
	// A valid observation is accepted even with no model published (the
	// loop just has nothing to compare against yet).
	resp, body := postJSON(t, ts.URL+"/observe", map[string]any{
		"resource": "cpu", "predicted": 10, "plan": json.RawMessage(encoded),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid observe: %s: %s", resp.Status, body)
	}
}

// TestRegistryRollback checks rollback semantics end to end: the prior
// estimator returns under a fresh version, repeated rollbacks walk
// further back, and cache entries from the rolled-back version never
// serve.
func TestRegistryRollback(t *testing.T) {
	altSetup(t)
	reg := serve.NewRegistry()
	svc := newService(t, serve.Options{Registry: reg})
	p := testPlans[0]
	wantA := cpuEst.PredictPlan(p)
	wantB := cpuEst2.PredictPlan(p)
	if math.Abs(wantA-wantB) < 1e-6*(wantA+1) {
		t.Fatalf("test estimators predict identically (%v); rollback would be unobservable", wantA)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*(math.Abs(want)+1) }

	if _, err := reg.Rollback("tpch", plan.CPUTime); !errors.Is(err, serve.ErrNoHistory) {
		t.Fatalf("rollback on empty slot: %v, want ErrNoHistory", err)
	}
	reg.Publish("tpch", cpuEst)
	vB := reg.Publish("tpch", cpuEst2)

	// Serve (and cache) predictions from the bad version B.
	got, err := svc.Estimate(t.Context(), serve.Request{Schema: "tpch", Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	if got.Model.Version != vB.Version || !near(got.Total, wantB) {
		t.Fatalf("pre-rollback serving v%d total %v, want v%d total %v", got.Model.Version, got.Total, vB.Version, wantB)
	}

	info, err := reg.Rollback("tpch", plan.CPUTime)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version <= vB.Version {
		t.Fatalf("rollback version %d not fresh (bad version %d)", info.Version, vB.Version)
	}
	// Every post-rollback response must carry the fresh version and A's
	// predictions — nothing cached under B (or under A's original
	// version) may serve.
	for i := 0; i < 3; i++ {
		got, err = svc.Estimate(t.Context(), serve.Request{Schema: "tpch", Plan: p})
		if err != nil {
			t.Fatal(err)
		}
		if got.Model.Version != info.Version {
			t.Fatalf("post-rollback pass %d served v%d, want v%d", i, got.Model.Version, info.Version)
		}
		if !near(got.Total, wantA) {
			t.Fatalf("post-rollback pass %d total %v, want A's %v (B predicted %v)", i, got.Total, wantA, wantB)
		}
	}

	// The rolled-back version is not re-recorded: the next rollback
	// finds an empty history instead of ping-ponging back to B.
	if _, err := reg.Rollback("tpch", plan.CPUTime); !errors.Is(err, serve.ErrNoHistory) {
		t.Fatalf("second rollback: %v, want ErrNoHistory", err)
	}
}

// TestRegistryHistoryBound publishes past the history cap and checks
// rollback stops at the bound.
func TestRegistryHistoryBound(t *testing.T) {
	altSetup(t)
	reg := serve.NewRegistry()
	const publishes = 12 // > historyCap (8)
	for i := 0; i < publishes; i++ {
		if i%2 == 0 {
			reg.Publish("tpch", cpuEst)
		} else {
			reg.Publish("tpch", cpuEst2)
		}
	}
	rolls := 0
	for {
		if _, err := reg.Rollback("tpch", plan.CPUTime); err != nil {
			break
		}
		rolls++
		if rolls > publishes {
			t.Fatal("rollback never exhausted history")
		}
	}
	if rolls != 8 {
		t.Fatalf("history retained %d versions, want 8", rolls)
	}
}

func TestHTTPRollback(t *testing.T) {
	altSetup(t)
	reg := serve.NewRegistry()
	svc := newService(t, serve.Options{Registry: reg})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// No history yet: 404. Bad resource: 400.
	resp, _ := postJSON(t, ts.URL+"/models/rollback", map[string]string{"schema": "tpch", "resource": "cpu"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rollback without history: %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/models/rollback", map[string]string{"resource": "gpu"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rollback bad resource: %d, want 400", resp.StatusCode)
	}

	reg.Publish("tpch", cpuEst)
	bad := reg.Publish("tpch", cpuEst2)
	resp, body := postJSON(t, ts.URL+"/models/rollback", map[string]string{"schema": "tpch", "resource": "cpu"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: %s: %s", resp.Status, body)
	}
	var info serve.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version <= bad.Version {
		t.Fatalf("rollback returned stale version %d", info.Version)
	}
	out, err := svc.Estimate(t.Context(), serve.Request{Schema: "tpch", Plan: testPlans[0]})
	if err != nil {
		t.Fatal(err)
	}
	if out.Model.Version != info.Version {
		t.Fatalf("serving v%d after rollback, want v%d", out.Model.Version, info.Version)
	}
	want := cpuEst.PredictPlan(testPlans[0])
	if math.Abs(out.Total-want) > 1e-9*(want+1) {
		t.Fatalf("rolled-back model predicts %v, want %v", out.Total, want)
	}
}

// TestRapidHotSwapCacheConsistency hammers /estimate while two models
// with different predictions are republished as fast as the registry
// allows. Cache entries are keyed by model version, so every response
// must exactly match one of the two models — a total matching neither
// would mean predictions from different versions were mixed. Run under
// -race (CI does).
func TestRapidHotSwapCacheConsistency(t *testing.T) {
	altSetup(t)
	svc := newService(t, serve.Options{Workers: 8})
	reg := svc.Registry()
	reg.Publish("tpch", cpuEst)

	wantA := make([]float64, len(testPlans))
	wantB := make([]float64, len(testPlans))
	for i, p := range testPlans {
		wantA[i] = cpuEst.PredictPlan(p)
		wantB[i] = cpuEst2.PredictPlan(p)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// No pause: swaps race individual per-operator cache fills.
			if i%2 == 0 {
				reg.Publish("tpch", cpuEst2)
			} else {
				reg.Publish("tpch", cpuEst)
			}
		}
	}()

	const (
		clients  = 8
		requests = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				idx := (c + i) % len(testPlans)
				resp, err := svc.Estimate(t.Context(), serve.Request{Schema: "tpch", Plan: testPlans[idx]})
				if err != nil {
					errs <- err
					return
				}
				da := math.Abs(resp.Total - wantA[idx])
				db := math.Abs(resp.Total - wantB[idx])
				tol := 1e-9 * (math.Abs(wantA[idx]) + math.Abs(wantB[idx]) + 1)
				if da > tol && db > tol {
					errs <- fmt.Errorf("plan %d: total %v matches neither model (A %v, B %v) — cross-version cache mix",
						idx, resp.Total, wantA[idx], wantB[idx])
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

// TestRollbackOrderUnderConcurrentPublish races publishes to one slot
// and then unwinds the history: rollbacks must restore strictly
// descending versions no matter how the publishers interleaved.
func TestRollbackOrderUnderConcurrentPublish(t *testing.T) {
	altSetup(t)
	reg := serve.NewRegistry()
	const publishers = 16
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				reg.Publish("tpch", cpuEst)
			} else {
				reg.Publish("tpch", cpuEst2)
			}
		}(i)
	}
	wg.Wait()
	rolls := 0
	for {
		m, ok := reg.Lookup("tpch", plan.CPUTime)
		if !ok {
			t.Fatal("slot emptied")
		}
		info, err := reg.Rollback("tpch", plan.CPUTime)
		if errors.Is(err, serve.ErrNoHistory) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rolls++
		if rolls > publishers {
			t.Fatal("rollback never exhausted history")
		}
		// Each rollback mints a fresh version and the slot must serve it.
		if info.Version <= m.Info.Version {
			t.Fatalf("rollback version %d not fresh (was serving %d)", info.Version, m.Info.Version)
		}
		now, ok := reg.Lookup("tpch", plan.CPUTime)
		if !ok || now.Info.Version != info.Version {
			t.Fatalf("slot serves v%d after rollback to v%d", now.Info.Version, info.Version)
		}
	}
	if rolls == 0 {
		t.Fatal("concurrent publishes recorded no history")
	}
	// Which estimator each rollback restores under racing publishes is
	// interleaving-dependent; the version-ordering of the history stack
	// itself is covered deterministically in the package-internal
	// TestPushHistoryOrdersByVersion.
}
