package serve_test

// Tests that POST /observe, which scores against the prediction cache,
// leaves the feedback loop exactly where a direct Loop.Observe — which
// walks the model — leaves it, and benchmarks of the three handlers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/serve"
)

// observeBody is the POST /observe body for one executed plan.
func observeBody(t testing.TB, version uint64, predicted float64, p *plan.Plan) []byte {
	t.Helper()
	enc, err := plan.EncodeJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"schema": "tpch", "resource": "cpu", "model_version": version,
		"predicted": predicted, "plan": json.RawMessage(enc),
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// loopState is everything a loop exposes about what it has ingested,
// with the ingest timestamps — the one thing two runs cannot share —
// cleared. reflect.DeepEqual on it compares every number by value;
// the JSON beside it catches a NaN that would compare unequal to
// itself.
func loopState(t *testing.T, l *feedback.Loop) (any, []byte) {
	t.Helper()
	exemplars := l.Exemplars()
	for i := range exemplars {
		exemplars[i].UnixNanos = 0
	}
	state := struct {
		Routes    []feedback.RouteStats
		Exemplars []feedback.Exemplar
	}{l.Snapshot(), exemplars}
	enc, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	return state, enc
}

// TestObserveMatchesDirectLoop feeds one observation sequence (a)
// through POST /observe, which hands the loop per-operator predictions
// resolved through the prediction cache, and (b) straight into
// Loop.Observe, which computes them from the model, and requires the
// two loops to end in the same state: route stats, per-operator
// windows, error-histogram summaries and exemplars, bit for bit. The
// sequence crosses a hot-swap and reports some predictions under the
// replaced version.
func TestObserveMatchesDirectLoop(t *testing.T) {
	altSetup(t)
	reg := serve.NewRegistry()
	newLoop := func() *feedback.Loop {
		l, err := feedback.New(feedback.Options{Publisher: reg, DriftThreshold: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	viaHTTP, direct := newLoop(), newLoop()
	svc := newService(t, serve.Options{Registry: reg, Feedback: viaHTTP})
	h := svc.Handler()
	first := reg.Publish("tpch", cpuEst)

	plans := driftedWorkload(t, 91, 48, 1.7)
	observe := func(i int, version uint64, predicted float64) {
		t.Helper()
		p := plans[i]
		id := "req-" + string(rune('a'+i%26))
		req := httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(observeBody(t, version, predicted, p)))
		req.Header.Set("X-Request-ID", id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted || rec.Body.String() != "{\"status\":\"accepted\"}\n" {
			t.Fatalf("observe %d: %d %q", i, rec.Code, rec.Body)
		}
		// The HTTP path decoded its own copy of the plan; the direct path
		// gets one too, so neither loop sees the other's.
		enc, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		own, err := plan.DecodeJSON(enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := direct.Observe(&feedback.Observation{Schema: "tpch", Resource: plan.CPUTime,
			ModelVersion: version, Predicted: predicted, Plan: own, RequestID: id}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 24; i++ {
		switch i % 3 {
		case 0:
			observe(i, first.Version, cpuEst.PredictPlan(plans[i]))
		case 1:
			observe(i, 0, 0) // the loop predicts
		default:
			observe(i, first.Version, 0.5*cpuEst.PredictPlan(plans[i]))
		}
	}
	second := reg.Publish("tpch", cpuEst2)
	for i := 24; i < 48; i++ {
		switch i % 3 {
		case 0:
			observe(i, second.Version, cpuEst2.PredictPlan(plans[i]))
		case 1:
			observe(i, first.Version, cpuEst.PredictPlan(plans[i])) // reported under the replaced version
		default:
			observe(i, 0, 0)
		}
	}

	got, gotJSON := loopState(t, viaHTTP)
	want, wantJSON := loopState(t, direct)
	if !reflect.DeepEqual(got, want) || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("POST /observe left the loop at\n%s\na direct Observe at\n%s", gotJSON, wantJSON)
	}
	routes := viaHTTP.Snapshot()
	if len(routes) != 1 || routes[0].Observations != 48 || len(routes[0].PerOperator) == 0 || len(viaHTTP.Exemplars()) == 0 {
		t.Fatalf("the sequence did not exercise the loop: %s", gotJSON)
	}
	// The service's metrics carry the loop's gauges as they stand.
	if m := svc.Metrics(); len(m.Feedback) != 1 || m.Feedback[0].Observations != 48 ||
		m.Feedback[0].Window.Count != routes[0].Window.Count {
		t.Fatalf("Metrics().Feedback = %+v, want the loop's one route", m.Feedback)
	}
}

// TestObserveLogsWireBytes sends one plan to POST /observe in several
// spellings and requires the observation log to hold each spelling's
// plan bytes verbatim and to replay each to the plan the handler
// ingested — the one its exemplar encodes — after the pooled bodies
// they arrived in have been overwritten.
func TestObserveLogsWireBytes(t *testing.T) {
	setup(t)
	dir := t.TempDir()
	reg := serve.NewRegistry()
	loop, err := feedback.New(feedback.Options{Dir: dir, Publisher: reg, DriftThreshold: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loop.Close() })
	h := newService(t, serve.Options{Registry: reg, Feedback: loop}).Handler()
	version := reg.Publish("tpch", cpuEst).Version

	p := testPlans[0]
	canonical, err := plan.EncodeJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, canonical, " ", "\t"); err != nil {
		t.Fatal(err)
	}
	var tree any
	dec := json.NewDecoder(bytes.NewReader(canonical))
	dec.UseNumber()
	if err := dec.Decode(&tree); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(tree) // map keys in sorted order
	if err != nil {
		t.Fatal(err)
	}
	exponent := regexp.MustCompile(`:-?[0-9]+\.[0-9]+`).ReplaceAllFunc(canonical, func(m []byte) []byte {
		f, err := strconv.ParseFloat(string(m[1:]), 64)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte{':'}, strconv.FormatFloat(f, 'e', -1, 64)...)
	})
	envelope := func(planKey string, wire []byte) []byte {
		return fmt.Appendf(nil, `{"schema":"tpch","resource":"cpu","model_version":%d,"predicted":%g,"%s":%s}`,
			version, 0.5*cpuEst.PredictPlan(p), planKey, wire)
	}
	cases := []struct {
		name string
		wire []byte // the plan's bytes in the body
		body []byte
	}{
		{name: "canonical", wire: canonical},
		{name: "whitespace", wire: spaced.Bytes()},
		{name: "reordered keys", wire: sorted},
		{name: "escaped key", wire: bytes.ReplaceAll(canonical, []byte(`"kind"`), []byte(`"k\u0069nd"`))},
		{name: "exponent numbers", wire: exponent},
		// An escaped envelope key: the walker declines the body and the
		// encoding/json decoder takes it.
		{name: "walker declines", wire: canonical, body: envelope(`pl\u0061n`, canonical)},
	}
	for i := range cases {
		c := &cases[i]
		if c.body != nil {
			var env serve.Envelope
			if serve.DecodeEnvelope(c.body, serve.ObserveKeys, &env) {
				t.Fatalf("%s: the walker took the body", c.name)
			}
			continue
		}
		if i > 0 && bytes.Equal(c.wire, canonical) {
			t.Fatalf("%s: the plan's bytes are not a new spelling", c.name)
		}
		c.body = envelope("plan", c.wire)
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(c.body))
		req.Header.Set("X-Request-ID", c.name)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s: %d %s", c.name, rec.Code, rec.Body)
		}
		serve.ScribblePooledBodies(4)
	}

	ingested := map[string][]byte{}
	for _, e := range loop.Exemplars() {
		ingested[e.RequestID] = e.Plan
	}
	replayed := map[string]*plan.Plan{}
	if _, err := feedback.ReplayDir(dir, func(o *feedback.Observation) error {
		replayed[o.RequestID] = o.Plan
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	segments, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segments) != 1 {
		t.Fatalf("log segments %v (%v), want one", segments, err)
	}
	logged, err := os.ReadFile(segments[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if !bytes.Equal(ingested[c.name], canonical) {
			t.Errorf("%s: the handler ingested\n%s\nwant\n%s", c.name, ingested[c.name], canonical)
		}
		got, ok := replayed[c.name]
		if !ok {
			t.Errorf("%s: not in the log", c.name)
			continue
		}
		if enc, err := plan.EncodeJSON(got); err != nil || !bytes.Equal(enc, ingested[c.name]) {
			t.Errorf("%s: the log replays to\n%s\nnot the plan the handler ingested (%v)", c.name, enc, err)
		}
		if !bytes.Contains(logged, c.wire) {
			t.Errorf("%s: the log does not hold the plan's bytes as they arrived", c.name)
		}
	}
}

// TestObserveIgnoresStaleServedPredictions hands the loop per-operator
// predictions stamped with a version a Publish has since replaced —
// the hot-swap between the handler's lookup and ingest — and requires
// it to ignore them and recompute against the current model.
func TestObserveIgnoresStaleServedPredictions(t *testing.T) {
	altSetup(t)
	reg := serve.NewRegistry()
	newLoop := func() *feedback.Loop {
		l, err := feedback.New(feedback.Options{Publisher: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	served, plain := newLoop(), newLoop()
	first := reg.Publish("tpch", cpuEst)
	second := reg.Publish("tpch", cpuEst2)
	for _, p := range driftedWorkload(t, 92, 8, 1.3) {
		garbage := make([]float64, p.NumNodes())
		for i := range garbage {
			garbage[i] = 1e9
		}
		obs := feedback.Observation{Schema: "tpch", Resource: plan.CPUTime, UnixNanos: 1, Plan: p}
		for _, s := range []feedback.Served{
			{Version: first.Version, Operators: garbage},      // replaced version
			{Version: second.Version, Operators: garbage[:1]}, // current version, wrong plan
			{Version: 0, Operators: garbage},                  // no version
		} {
			if err := served.ObserveServed(&obs, s); err != nil {
				t.Fatal(err)
			}
			if err := plain.Observe(&obs); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, gotJSON := loopState(t, served)
	want, wantJSON := loopState(t, plain)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stale served predictions were used:\n%s\nwant\n%s", gotJSON, wantJSON)
	}
	// And the current version's are used: the same garbage now shows.
	p := driftedWorkload(t, 93, 1, 1)[0]
	garbage := make([]float64, p.NumNodes())
	for i := range garbage {
		garbage[i] = 1e9
	}
	if err := served.ObserveServed(&feedback.Observation{Schema: "tpch", Resource: plan.CPUTime, Plan: p},
		feedback.Served{Version: second.Version, Operators: garbage}); err != nil {
		t.Fatal(err)
	}
	if ex := served.Exemplars(); len(ex) == 0 || ex[0].Predicted != 1e9*float64(p.NumNodes()) {
		t.Fatalf("current-version served predictions were not used: %+v", ex)
	}
}

// TestObserveScoresFromCache pins where POST /observe gets its
// per-operator predictions: estimating a plan and then observing it
// adds prediction-cache hits and not one miss — no model walk — and
// the values are bit-identical to the model's own.
func TestObserveScoresFromCache(t *testing.T) {
	reg := serve.NewRegistry()
	loop, err := feedback.New(feedback.Options{Publisher: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loop.Close() })
	svc := newService(t, serve.Options{Registry: reg, Feedback: loop})
	info := reg.Publish("tpch", cpuEst)
	reg.Publish("tpch", ioEst)
	h := svc.Handler()
	post := func(path string, body []byte, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	estimate, _, _ := benchBodies(t, testPlans)
	operators := 0
	for i, p := range testPlans {
		post("/estimate", estimate[i], http.StatusOK)
		before := svc.Metrics().Cache
		post("/observe", observeBody(t, info.Version, cpuEst.PredictPlan(p), p), http.StatusAccepted)
		after := svc.Metrics().Cache
		if n := uint64(p.NumNodes()); after.Misses != before.Misses || after.Hits != before.Hits+n {
			t.Fatalf("plan %d (%d operators): observe moved the cache from %+v to %+v", i, n, before, after)
		}
		operators += p.NumNodes()
	}
	// Scored against the cache, the loop's per-operator errors are the
	// model's: an exemplar's per-node predictions carry them.
	exemplars := loop.Exemplars()
	if len(exemplars) == 0 {
		t.Fatal("no exemplar captured")
	}
	for _, ex := range exemplars {
		p, err := plan.DecodeJSON(ex.Plan)
		if err != nil {
			t.Fatal(err)
		}
		vecs := features.ExtractPlan(p, cpuEst.Mode)
		for i, n := range p.Nodes() {
			want := cpuEst.PredictVector(n.Kind, &vecs[i])
			if math.Float64bits(ex.Nodes[i].Predicted) != math.Float64bits(want) {
				t.Fatalf("exemplar node %d predicted %v, the model %v", i, ex.Nodes[i].Predicted, want)
			}
		}
	}
	t.Logf("%d plans, %d operators: every observe scored from the cache", len(testPlans), operators)
}

// TestObserveFromCacheMatchesModel sends every plan of a drifted
// workload through POST /estimate and then POST /observe, so the
// handler scores from the predictions the cache serves, while two
// goroutines keep single and multi-resource batch estimates of other
// plans running through the same pooled buffers. The loop the handler
// fed must end where a second loop, fed the same observations through
// Loop.Observe and so scoring from the model, ends — route windows,
// per-operator windows, error histograms, coverage counters and
// exemplars, bit for bit.
func TestObserveFromCacheMatchesModel(t *testing.T) {
	altSetup(t)
	reg := serve.NewRegistry()
	newLoop := func() *feedback.Loop {
		l, err := feedback.New(feedback.Options{Publisher: reg, DriftThreshold: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	viaHTTP, direct := newLoop(), newLoop()
	svc := newService(t, serve.Options{Registry: reg, Feedback: viaHTTP})
	h := svc.Handler()
	info := reg.Publish("tpch", cpuEst)
	reg.Publish("tpch", ioEst)
	post := func(path string, body []byte, id string) (int, string) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if id != "" {
			req.Header.Set(serve.RequestIDHeader, id)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	plans := driftedWorkload(t, 94, 40, 1.5)
	estimate, _, _ := benchBodies(t, plans)
	others, _, batch := benchBodies(t, driftedWorkload(t, 95, 16, 1))
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for _, bg := range []struct {
		path   string
		bodies [][]byte
	}{{"/estimate/batch", [][]byte{batch}}, {"/estimate", others}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if code, body := post(bg.path, bg.bodies[i%len(bg.bodies)], ""); code != http.StatusOK {
					errs <- fmt.Errorf("%s: %d %s", bg.path, code, body)
					return
				}
			}
		}()
	}

	for i, p := range plans {
		if code, body := post("/estimate", estimate[i], ""); code != http.StatusOK {
			t.Fatalf("estimate %d: %d %s", i, code, body)
		}
		// Every other report leaves the plan's total to the loop, which
		// then sums the per-operator predictions.
		var predicted float64
		if i%2 == 0 {
			predicted = cpuEst.PredictPlan(p)
		}
		id := fmt.Sprintf("req-%d", i)
		if code, body := post("/observe", observeBody(t, info.Version, predicted, p), id); code != http.StatusAccepted {
			t.Fatalf("observe %d: %d %s", i, code, body)
		}
		enc, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		own, err := plan.DecodeJSON(enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := direct.Observe(&feedback.Observation{Schema: "tpch", Resource: plan.CPUTime,
			ModelVersion: info.Version, Predicted: predicted, Plan: own, RequestID: id}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	got, gotJSON := loopState(t, viaHTTP)
	want, wantJSON := loopState(t, direct)
	if !reflect.DeepEqual(got, want) || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("POST /observe left the loop at\n%s\nLoop.Observe at\n%s", gotJSON, wantJSON)
	}
	routes := viaHTTP.Snapshot()
	if len(routes) != 1 || routes[0].Observations != uint64(len(plans)) || len(routes[0].PerOperator) == 0 ||
		routes[0].Coverage == nil || routes[0].ErrorLogRatio.Count == 0 {
		t.Fatalf("the sequence did not exercise the loop: %s", gotJSON)
	}
}

// TestObserveAllocs pins what a warm POST /observe allocates, its
// request and recorder built beforehand: 22 at the time of writing.
// What remains, per request:
//   - WithRequestID: the generated ID, its boxing into the context
//     value, the context, and the request copy that carries it;
//   - the response: the header map's first group and the X-Request-Id
//     and Content-Type values;
//   - the recorder: its header snapshot and its body buffer;
//   - reading: the body's MaxBytesReader;
//   - decoding: the plan, its tag, one node-arena chunk, each leaf's
//     table name and, for some bodies, the resource name;
//   - the cache multi-get: its shard grouping;
//   - the feedback loop: its copy of the observation, which the
//     retraining buffer keeps.
//
// The probes, feature vectors and per-operator predictions come from a
// pool, the route's model set is built at publish, and the loop scores
// the plan without a node list, so none of them may allocate again.
func TestObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	setup(t)
	reg := serve.NewRegistry()
	loop, err := feedback.New(feedback.Options{Dir: t.TempDir(), Publisher: reg, DriftThreshold: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loop.Close() })
	svc := newService(t, serve.Options{Registry: reg, Feedback: loop})
	reg.Publish("tpch", cpuEst)
	h := svc.Handler()
	_, observe, _ := benchBodies(t, testPlans)
	const runs = 200
	reqs := make([]*http.Request, 0, runs+1+40*len(observe))
	recs := make([]*httptest.ResponseRecorder, 0, cap(reqs))
	for i := 0; i < cap(reqs); i++ {
		reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(observe[i%len(observe)])))
		recs = append(recs, httptest.NewRecorder())
	}
	next := 0
	serveNext := func() {
		h.ServeHTTP(recs[next], reqs[next])
		if recs[next].Code != http.StatusAccepted {
			t.Fatalf("observe: %d %s", recs[next].Code, recs[next].Body)
		}
		next++
	}
	// Warm the pools and the cache, and fill the exemplar store with the
	// worst of these plans so none of them qualifies any more.
	for next < 40*len(observe) {
		serveNext()
	}
	const want = 22
	allocs := testing.AllocsPerRun(runs, serveNext)
	t.Logf("POST /observe: %.0f allocations", allocs)
	if allocs > want+2 {
		t.Fatalf("POST /observe allocates %.0f times, want at most %d", allocs, want+2)
	}
}

// BenchmarkHandleEstimate, BenchmarkHandleObserve and
// BenchmarkHandleBatch64 drive the handlers on a recorder, no socket —
// the shapes the benchmark's serve.handler_*_ns layer metrics measure.
// body(i) is iteration i's request; the first warm of them are posted
// before the clock starts. The loop logs each observation, as a server
// started with -feedback-dir does.
func benchHandler(b *testing.B, path string, warm int, body func(i int) []byte, want int) *serve.Service {
	reg := serve.NewRegistry()
	loop, err := feedback.New(feedback.Options{Dir: b.TempDir(), Publisher: reg, DriftThreshold: 1e9})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { loop.Close() })
	svc := newService(b, serve.Options{Registry: reg, Feedback: loop})
	reg.Publish("tpch", cpuEst)
	reg.Publish("tpch", ioEst)
	h := svc.Handler()
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != want {
			b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	for i := 0; i < warm; i++ { // warm the caches
		post(body(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(body(warm + i))
	}
	b.StopTimer()
	return svc
}

// cycle is the body sequence that repeats bodies in order.
func cycle(bodies [][]byte) func(int) []byte {
	return func(i int) []byte { return bodies[i%len(bodies)] }
}

// BenchmarkHandleEstimate/replayed repeats a handful of bodies, so every
// measured request is answered from the response cache; /computed sends
// the same plans under bytes never sent before — a timeout_ms that
// counts up, far too long to fire — so every one is decoded, run
// through the pool against a warm prediction cache, encoded and filed.
func BenchmarkHandleEstimate(b *testing.B) {
	setup(b)
	estimate, _, _ := benchBodies(b, testPlans)
	b.Run("computed", func(b *testing.B) {
		var buf []byte
		svc := benchHandler(b, "/estimate", len(estimate), func(i int) []byte {
			buf = strconv.AppendInt(append(buf[:0], `{"timeout_ms":`...), int64(1_000_000+i), 10)
			buf = append(buf, ',')
			return append(buf, estimate[i%len(estimate)][1:]...)
		}, http.StatusOK)
		if hits, misses := svc.ReplayCounts(); hits != 0 || misses != uint64(len(estimate)+b.N) {
			b.Fatalf("%d of %d requests were replays", hits, hits+misses)
		}
	})
	b.Run("replayed", func(b *testing.B) {
		svc := benchHandler(b, "/estimate", len(estimate), cycle(estimate), http.StatusOK)
		if hits, misses := svc.ReplayCounts(); hits != uint64(b.N) || misses != uint64(len(estimate)) {
			b.Fatalf("%d of %d measured requests were replays", hits, b.N)
		}
	})
}

func BenchmarkHandleObserve(b *testing.B) {
	setup(b)
	_, observe, _ := benchBodies(b, testPlans)
	benchHandler(b, "/observe", len(observe), cycle(observe), http.StatusAccepted)
}

func BenchmarkHandleBatch64(b *testing.B) {
	setup(b)
	plans := make([]*plan.Plan, 64)
	for i := range plans {
		plans[i] = testPlans[i%len(testPlans)]
	}
	_, _, batch := benchBodies(b, plans)
	benchHandler(b, "/estimate/batch", 1, cycle([][]byte{batch}), http.StatusOK)
}
