package serve_test

// Tests for the response cache in front of POST /estimate — the
// service's one cache, which the stream listener asks too
// (internal/stream/replay_test.go has that side and the crossing): a
// repeat of a body is answered with the bytes a warm prediction cache
// would have produced and no job; whatever moves the models a request
// resolves to makes the next repeat a computation again; ?explain=1
// neither reads nor fills; and no error answer is ever filed.

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
)

// estimateBody is a POST /estimate body for p. resources overrides
// resource when given.
func estimateBody(t testing.TB, schema, resource string, p *plan.Plan, resources ...string) []byte {
	t.Helper()
	enc, err := plan.EncodeJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	req := map[string]any{"plan": json.RawMessage(enc)}
	if schema != "" {
		req["schema"] = schema
	}
	if len(resources) > 0 {
		req["resources"] = resources
	} else {
		req["resource"] = resource
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// replayAnswer is what the tests read back out of a response body.
type replayAnswer struct {
	Model       serve.ModelInfo   `json:"model"`
	Models      []serve.ModelInfo `json:"models"`
	Operators   []json.RawMessage `json:"operators"`
	CacheHits   int               `json:"cache_hits"`
	CacheMisses int               `json:"cache_misses"`
	Explain     json.RawMessage   `json:"explain"`
	Code        string            `json:"code"`
}

// httpProbe posts bodies to the handler on a recorder and tells, from
// the service's counters, whether each answer was computed or replayed.
type httpProbe struct {
	t   testing.TB
	svc *serve.Service
	h   http.Handler
}

func newHTTPProbe(t testing.TB, svc *serve.Service) httpProbe {
	return httpProbe{t, svc, svc.Handler()}
}

// jobs counts the estimate endpoint's trips through the pool.
func (p httpProbe) jobs() uint64 {
	return p.svc.StageLatencies("estimate", obs.StageQueue).Count
}

// post sends body to path. probed says whether the response cache was
// asked, replayed whether it answered; exactly one of a replay and a
// job happens to a request that is answered 200.
func (p httpProbe) post(path string, body []byte) (rec *httptest.ResponseRecorder, a replayAnswer, probed, replayed bool) {
	p.t.Helper()
	hits, misses := p.svc.ReplayCounts()
	jobs := p.jobs()
	requests := p.svc.Metrics().Requests
	rec = httptest.NewRecorder()
	p.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
		p.t.Fatalf("response does not decode: %v\n%s", err, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		p.t.Fatalf("Content-Type %q", ct)
	}
	nowHits, nowMisses := p.svc.ReplayCounts()
	hit, miss, ran := nowHits-hits, nowMisses-misses, p.jobs()-jobs
	if hit+miss > 1 || hit+ran > 1 {
		p.t.Fatalf("one request: %d replay hits, %d misses, %d jobs", hit, miss, ran)
	}
	if rec.Code == http.StatusOK {
		if hit+ran != 1 {
			p.t.Fatalf("a 200 with %d replay hits and %d jobs", hit, ran)
		}
		if got := p.svc.Metrics().Requests - requests; got != 1 {
			p.t.Fatalf("one answered request counted %d times", got)
		}
	}
	return rec, a, hit+miss == 1, hit == 1
}

// computed posts body and requires a computation under version v;
// replayed posts it and requires a replay of exactly want.
func (p httpProbe) computed(what string, body []byte, v uint64) []byte {
	p.t.Helper()
	rec, a, _, replayed := p.post("/estimate", body)
	if rec.Code != http.StatusOK {
		p.t.Fatalf("%s: %d %s", what, rec.Code, rec.Body)
	}
	if replayed {
		p.t.Fatalf("%s: answered from the response cache, v%d", what, a.Model.Version)
	}
	if a.Model.Version != v {
		p.t.Fatalf("%s: computed by v%d, want v%d", what, a.Model.Version, v)
	}
	return rec.Body.Bytes()
}

func cutCounters(b []byte) []byte { return b[:bytes.LastIndex(b, []byte(`,"cache_hits":`))] }

func (p httpProbe) replayed(what string, body, first []byte) []byte {
	p.t.Helper()
	rec, a, _, replayed := p.post("/estimate", body)
	if rec.Code != http.StatusOK || !replayed {
		p.t.Fatalf("%s: a repeat was computed again (%d)", what, rec.Code)
	}
	if a.CacheHits != len(a.Operators) || a.CacheMisses != 0 {
		p.t.Fatalf("%s: replay reports %d hits, %d misses for %d operators", what, a.CacheHits, a.CacheMisses, len(a.Operators))
	}
	if !bytes.Equal(cutCounters(rec.Body.Bytes()), cutCounters(first)) {
		p.t.Fatalf("%s: replay differs from the computed answer\nreplay:   %s\ncomputed: %s", what, rec.Body, first)
	}
	return rec.Body.Bytes()
}

// warm returns what POST /estimate computes for body once the
// prediction cache holds its operators: the second answer to the same
// request under other bytes — trailing spaces, which are another key to
// the response cache and nothing to the decoder.
func (p httpProbe) warm(body []byte, v uint64) []byte {
	p.t.Helper()
	p.computed("warming", append(bytes.Clone(body), ' '), v)
	return p.computed("warm", append(bytes.Clone(body), ' ', ' '), v)
}

func replayService(t testing.TB, opts serve.Options) (*serve.Service, httpProbe) {
	svc := newService(t, opts)
	svc.Registry().Publish("", cpuEst)
	svc.Registry().Publish("", ioEst)
	return svc, newHTTPProbe(t, svc)
}

// promValue reads one sample off the service's Prometheus exposition.
func promValue(t testing.TB, svc *serve.Service, series string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.Obs().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	t.Fatalf("no series %s", series)
	return ""
}

// TestHTTPReplayIsTheWarmAnswer: the second identical POST is, byte for
// byte, what a warm prediction cache computes for that request, and
// costs a request on the estimate endpoint, one cache_probe stage and
// nothing else — no decode, no job, no encode.
func TestHTTPReplayIsTheWarmAnswer(t *testing.T) {
	svc, p := replayService(t, serve.Options{})
	cpu, _ := svc.Registry().Lookup("tpch", plan.CPUTime)
	body := estimateBody(t, "tpch", "cpu", testPlans[0])
	want := p.warm(body, cpu.Info.Version)

	first := p.computed("first serving", body, cpu.Info.Version)
	stages := func() (n [obs.NumStages]uint64) {
		for _, st := range obs.Stages() {
			n[st] = svc.StageLatencies("estimate", st).Count
		}
		return n
	}
	before, latencies := stages(), svc.RequestLatencies("estimate").Count
	requests := promValue(t, svc, `resserve_requests_total{endpoint="estimate"}`)
	rec, _, _, replayed := p.post("/estimate", body)
	if !replayed || !bytes.Equal(rec.Body.Bytes(), want) || !bytes.Equal(first, want) {
		t.Fatalf("repeat (replayed %v) differs from the warm answer\nrepeat:   %s\ncomputed: %s\nwarm:     %s", replayed, rec.Body, first, want)
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Fatal("a replay carries no request ID")
	}
	after := stages()
	before[obs.StageCacheProbe]++
	if after != before {
		t.Fatalf("a replay moved the stages from %v to %v, want one cache_probe more", before, after)
	}
	if got := svc.RequestLatencies("estimate").Count - latencies; got != 1 {
		t.Fatalf("a replay added %d latency samples", got)
	}
	if now := promValue(t, svc, `resserve_requests_total{endpoint="estimate"}`); now == requests {
		t.Fatalf("resserve_requests_total{endpoint=\"estimate\"} stayed at %s over a replay", now)
	}
	if hits, misses := promValue(t, svc, "resserve_estimate_replay_hits_total"),
		promValue(t, svc, "resserve_estimate_replay_misses_total"); hits != "1" || misses != "3" {
		t.Fatalf("resserve_estimate_replay_{hits,misses}_total = %s, %s after one replay and three computations", hits, misses)
	}

	// A body's timeout_ms does not stop a replay, and is part of the key.
	timed := bytes.Replace(body, []byte(`{`), []byte(`{"timeout_ms":1,`), 1)
	if _, _, _, replayed := p.post("/estimate", timed); replayed {
		t.Fatal("other bytes were answered from the response cache")
	}
}

// TestHTTPReplayInvalidatedByPublishAndRollback: fill, publish, and the
// same bytes are computed again by the new version; then a repeat
// replays that; a rollback invalidates the same way; publishing another
// resource moves nothing.
func TestHTTPReplayInvalidatedByPublishAndRollback(t *testing.T) {
	svc, p := replayService(t, serve.Options{})
	reg := svc.Registry()
	body := estimateBody(t, "tpch", "cpu", testPlans[0])
	v1, _ := reg.Lookup("tpch", plan.CPUTime)

	first := p.computed("first serving", body, v1.Info.Version)
	p.replayed("second serving", body, first)

	v2 := reg.Publish("", cpuEst)
	second := p.computed("after publish", body, v2.Version)
	p.replayed("repeat after publish", body, second)

	v3, err := reg.Rollback("", plan.CPUTime)
	if err != nil {
		t.Fatal(err)
	}
	third := p.computed("after rollback", body, v3.Version)
	p.replayed("repeat after rollback", body, third)

	reg.Publish("", ioEst)
	p.replayed("after an unrelated publish", body, third)
}

// TestHTTPReplayInvalidatedByDedicatedModel: a schema answered by the ""
// fallback gets a model of its own; the other schema stays live.
func TestHTTPReplayInvalidatedByDedicatedModel(t *testing.T) {
	svc, p := replayService(t, serve.Options{})
	reg := svc.Registry()
	alpha := estimateBody(t, "alpha", "cpu", testPlans[0])
	beta := estimateBody(t, "beta", "cpu", testPlans[0])
	fallback, _ := reg.Lookup("", plan.CPUTime)

	firstAlpha := p.computed("alpha by the fallback", alpha, fallback.Info.Version)
	firstBeta := p.computed("beta by the fallback", beta, fallback.Info.Version)
	p.replayed("alpha repeat", alpha, firstAlpha)

	own := reg.Publish("alpha", cpuEst)
	second := p.computed("alpha by its own model", alpha, own.Version)
	p.replayed("alpha repeat on its own model", alpha, second)
	p.replayed("beta, still on the fallback", beta, firstBeta)
}

// TestHTTPReplayInvalidatedByEitherResource: a multi-resource answer
// dies with either of the versions that computed it.
func TestHTTPReplayInvalidatedByEitherResource(t *testing.T) {
	svc, p := replayService(t, serve.Options{})
	reg := svc.Registry()
	body := estimateBody(t, "", "", testPlans[1], "cpu", "io")
	cpu, _ := reg.Lookup("", plan.CPUTime)

	first := p.computed("first serving", body, cpu.Info.Version)
	p.replayed("repeat", body, first)
	for _, pub := range []struct {
		name string
		est  *core.Estimator
		at   int // the published resource's place in models
	}{{"cpu", cpuEst, 0}, {"io", ioEst, 1}} {
		info := reg.Publish("", pub.est)
		rec, a, _, replayed := p.post("/estimate", body)
		if replayed {
			t.Fatalf("publishing %s left the multi-resource answer live", pub.name)
		}
		if len(a.Models) != 2 || a.Models[pub.at].Version != info.Version {
			t.Fatalf("after publishing %s v%d the answer carries %+v", pub.name, info.Version, a.Models)
		}
		p.replayed("repeat after publishing "+pub.name, body, rec.Body.Bytes())
	}
}

// TestHTTPReplayExplainNeitherReadsNorFills: an explain after a plain
// POST still carries its decomposition and asks the cache nothing; a
// plain POST after an explain is computed once, then replayed.
func TestHTTPReplayExplainNeitherReadsNorFills(t *testing.T) {
	svc, p := replayService(t, serve.Options{})
	cpu, _ := svc.Registry().Lookup("tpch", plan.CPUTime)
	explained := func(what string, body []byte) {
		t.Helper()
		rec, a, probed, _ := p.post("/estimate?explain=1", body)
		if rec.Code != http.StatusOK || probed || len(a.Explain) == 0 {
			t.Fatalf("%s: status %d, response cache asked %v, explain %s", what, rec.Code, probed, a.Explain)
		}
	}

	body := estimateBody(t, "tpch", "cpu", testPlans[0])
	first := p.computed("plain", body, cpu.Info.Version)
	explained("explain after a plain POST", body)
	replay := p.replayed("plain after the explain", body, first)
	if bytes.Contains(replay, []byte(`"explain"`)) {
		t.Fatalf("a replay carries an explain: %s", replay)
	}

	other := estimateBody(t, "tpch", "cpu", testPlans[1])
	explained("explain of a body never seen", other)
	explained("its repeat", other)
	first = p.computed("plain after explains", other, cpu.Info.Version)
	p.replayed("its repeat", other, first)

	// A query string that asks for nothing is still a plain request.
	rec, _, _, replayed := p.post("/estimate?explain=banana", other)
	if !replayed || !bytes.Equal(cutCounters(rec.Body.Bytes()), cutCounters(first)) {
		t.Fatalf("?explain=banana: replayed %v: %s", replayed, rec.Body)
	}
}

// TestHTTPReplayNeverFilesErrors: an error answer of any kind is given
// again, computed again, to the same bytes, and the cache never serves.
func TestHTTPReplayNeverFilesErrors(t *testing.T) {
	svc := newService(t, serve.Options{})
	svc.Registry().Publish("tpch", cpuEst) // no fallback, no IO model
	p := newHTTPProbe(t, svc)
	good := estimateBody(t, "tpch", "cpu", testPlans[0])
	overLimit := append(bytes.Clone(good), bytes.Repeat([]byte{' '}, serve.MaxEstimateBody)...)

	for _, tc := range []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"bad body", []byte(`{"schema":"tpch","plan":`), http.StatusBadRequest, "bad_request"},
		{"over-limit body", overLimit, http.StatusBadRequest, "bad_request"},
		{"unknown resource", estimateBody(t, "tpch", "gpu", testPlans[0]), http.StatusBadRequest, "unknown_resource"},
		{"missing plan", []byte(`{"schema":"tpch","resource":"cpu"}`), http.StatusBadRequest, "bad_request"},
		{"no model for the schema", estimateBody(t, "other", "cpu", testPlans[0]), http.StatusNotFound, "unknown_schema"},
		{"no model for the resource", estimateBody(t, "tpch", "io", testPlans[0]), http.StatusNotFound, "unknown_schema"},
	} {
		for k := 0; k < 2; k++ {
			rec, a, _, replayed := p.post("/estimate", tc.body)
			if rec.Code != tc.status || a.Code != tc.code || replayed {
				t.Fatalf("%s, serving %d: %d %s (replayed %v), want %d %s", tc.name, k, rec.Code, a.Code, replayed, tc.status, tc.code)
			}
		}
	}

	// A fired deadline: the request's context is done before it arrives,
	// so whichever way the pool's select falls the answer is a timeout.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for k := 0; k < 2; k++ {
		rec := httptest.NewRecorder()
		p.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(good)).WithContext(gone))
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("deadline, serving %d: %d %s", k, rec.Code, rec.Body)
		}
	}
	if hits, _ := svc.ReplayCounts(); hits != 0 {
		t.Fatalf("%d replays among error answers", hits)
	}
	cpu, _ := svc.Registry().Lookup("tpch", plan.CPUTime)
	first := p.computed("the timed-out body, with time", good, cpu.Info.Version)
	p.replayed("its repeat", good, first)
}

// TestHTTPReplayOfDeclinedBody: a body the envelope walker declines — an
// escaped string, a key in another case — decodes through
// encoding/json, and is filed and replayed like any other.
func TestHTTPReplayOfDeclinedBody(t *testing.T) {
	svc, p := replayService(t, serve.Options{})
	cpu, _ := svc.Registry().Lookup("", plan.CPUTime)
	enc, err := plan.EncodeJSON(testPlans[3])
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"escaped string": []byte(`{"resource":"\u0063pu","plan":` + string(enc) + `}`),
		"folded key":     []byte(`{"Resource":"cpu","plan":` + string(enc) + `}`),
	} {
		var env serve.Envelope
		if serve.DecodeEnvelope(body, serve.EstimateKeys, &env) {
			t.Fatalf("%s: the walker took the body", name)
		}
		want := p.warm(body, cpu.Info.Version)
		first := p.computed(name, body, cpu.Info.Version)
		replay := p.replayed(name+" repeat", body, first)
		if !bytes.Equal(first, want) || !bytes.Equal(replay, want) {
			t.Fatalf("%s: servings differ from the warm answer\ncomputed: %s\nreplay:   %s\nwarm:     %s", name, first, replay, want)
		}
	}
}

// TestHTTPReplayOffWithPredictionCache: CacheEntries < 0 turns the
// response cache off with the prediction cache — nothing is probed,
// counted or filed, and every repeat is a job.
func TestHTTPReplayOffWithPredictionCache(t *testing.T) {
	svc, p := replayService(t, serve.Options{CacheEntries: -1})
	body := estimateBody(t, "tpch", "cpu", testPlans[0])
	var first []byte
	for k := 0; k < 3; k++ {
		rec, _, probed, _ := p.post("/estimate", body)
		if rec.Code != http.StatusOK || probed {
			t.Fatalf("serving %d: %d, response cache asked %v", k, rec.Code, probed)
		}
		if k == 0 {
			first = rec.Body.Bytes()
		} else if !bytes.Equal(rec.Body.Bytes(), first) {
			t.Fatalf("serving %d differs with every cache off\nfirst: %s\nnow:   %s", k, first, rec.Body)
		}
	}
	if hits, misses := svc.ReplayCounts(); hits != 0 || misses != 0 || p.jobs() != 3 {
		t.Fatalf("with the prediction cache off: %d hits, %d misses, %d jobs", hits, misses, p.jobs())
	}
}

// TestHTTPReplayNeverOlderThanPublished races two publishers against
// concurrent repeats of one body: once Publish has returned a version,
// no request made afterwards may be answered by an older one, replayed
// or computed. Run with -race.
func TestHTTPReplayNeverOlderThanPublished(t *testing.T) {
	svc, p := replayService(t, serve.Options{})
	reg := svc.Registry()
	body := estimateBody(t, "", "cpu", testPlans[2])

	var published atomic.Uint64 // the newest version a returned Publish handed out
	cur, _ := reg.Lookup("", plan.CPUTime)
	published.Store(cur.Info.Version)
	stop := make(chan struct{})
	var pubs, reqs sync.WaitGroup
	for g := 0; g < 2; g++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := reg.Publish("", cpuEst).Version
				for old := published.Load(); old < v && !published.CompareAndSwap(old, v); old = published.Load() {
				}
			}
		}()
	}
	const callers, rounds = 16, 32
	for g := 0; g < callers; g++ {
		reqs.Add(1)
		go func() {
			defer reqs.Done()
			for k := 0; k < rounds; k++ {
				floor := published.Load()
				rec := httptest.NewRecorder()
				p.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body)))
				var a replayAnswer
				if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil || rec.Code != http.StatusOK {
					t.Errorf("status %d, decode %v: %s", rec.Code, err, rec.Body)
					return
				}
				if a.Model.Version < floor {
					t.Errorf("answered by v%d after v%d was published", a.Model.Version, floor)
					return
				}
			}
		}()
	}
	reqs.Wait()
	close(stop)
	pubs.Wait()
	if hits, misses := svc.ReplayCounts(); hits+misses != callers*rounds {
		t.Fatalf("%d hits + %d misses after %d requests", hits, misses, callers*rounds)
	}
}

// syncBuffer is a log sink several handler goroutines may write.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// TestSlowTraceCoversReplays: a request's trace exists exactly while a
// slow-trace threshold could report it, and a replay slower than the
// threshold is reported like a computation, with the one stage it has.
func TestSlowTraceCoversReplays(t *testing.T) {
	var log syncBuffer
	svc, p := replayService(t, serve.Options{
		SlowTrace: time.Nanosecond,
		Logger:    slog.New(slog.NewTextHandler(&log, nil)),
	})
	cpu, _ := svc.Registry().Lookup("", plan.CPUTime)
	body := estimateBody(t, "", "cpu", testPlans[0])
	first := p.computed("first serving", body, cpu.Info.Version)
	p.replayed("repeat", body, first)
	lines := strings.Split(strings.TrimSpace(log.b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d slow-trace records for two requests:\n%s", len(lines), log.b.String())
	}
	if !strings.Contains(lines[0], "predict=") || !strings.Contains(lines[0], "decode=") {
		t.Fatalf("the computation's record lacks its stages: %s", lines[0])
	}
	if !strings.Contains(lines[1], "cache_probe=") || strings.Contains(lines[1], "decode=") || strings.Contains(lines[1], "predict=") {
		t.Fatalf("the replay's record: %s", lines[1])
	}
}
