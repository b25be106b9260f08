package stream_test

// Tests for the service's response cache as the stream handler asks it:
// a repeat of a request is answered with the bytes a warm prediction
// cache would have produced and no dispatch; whatever moves the models a
// request resolves to — publish, rollback, a dedicated model replacing
// the fallback, either resource of a multi-resource request — makes the
// next repeat a computation again; nothing that is not a framed answer
// is ever filed; and it is one cache under both transports — what POST
// /estimate answered replays here and the reverse. The HTTP side's own
// tests are internal/serve/replay_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stream"
)

func requestBody(t testing.TB, req *stream.Request) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// answer is what the tests read back out of a response body.
type answer struct {
	Model       serve.ModelInfo   `json:"model"`
	Models      []serve.ModelInfo `json:"models"`
	Operators   []json.RawMessage `json:"operators"`
	CacheHits   int               `json:"cache_hits"`
	CacheMisses int               `json:"cache_misses"`
}

// replayProbe sends bodies over one connection and tells, from the
// server's counters, whether each answer was computed or replayed.
type replayProbe struct {
	t   testing.TB
	srv *stream.Server
	cl  *stream.Client
}

func (p replayProbe) send(body []byte) (raw []byte, a answer, replayed bool) {
	p.t.Helper()
	before := p.srv.Stats()
	raw, err := p.cl.EstimateBytes(context.Background(), body)
	if err != nil {
		p.t.Fatalf("estimate: %v", err)
	}
	if err := json.Unmarshal(raw, &a); err != nil {
		p.t.Fatalf("response does not decode: %v\n%s", err, raw)
	}
	after := p.srv.Stats()
	hit := after.ReplayHits - before.ReplayHits
	if hit+after.Dispatches-before.Dispatches != 1 || hit+after.ReplayMisses-before.ReplayMisses != 1 {
		p.t.Fatalf("one request moved the counters from %+v to %+v", before, after)
	}
	return raw, a, hit == 1
}

// computed sends body and requires a computation under version v;
// replayed sends it and requires a replay of exactly want.
func (p replayProbe) computed(what string, body []byte, v uint64) []byte {
	p.t.Helper()
	raw, a, replayed := p.send(body)
	if replayed {
		p.t.Fatalf("%s: answered from the response cache, v%d", what, a.Model.Version)
	}
	if a.Model.Version != v {
		p.t.Fatalf("%s: computed by v%d, want v%d", what, a.Model.Version, v)
	}
	return raw
}

func (p replayProbe) replayed(what string, body, first []byte) {
	p.t.Helper()
	raw, a, replayed := p.send(body)
	if !replayed {
		p.t.Fatalf("%s: a repeat was computed again", what)
	}
	if a.CacheHits != len(a.Operators) || a.CacheMisses != 0 {
		p.t.Fatalf("%s: replay reports %d hits, %d misses for %d operators", what, a.CacheHits, a.CacheMisses, len(a.Operators))
	}
	// All other bytes are the computed answer's: cut both at the counters.
	cut := func(b []byte) []byte { return b[:bytes.LastIndex(b, []byte(`,"cache_hits":`))] }
	if !bytes.Equal(cut(raw), cut(first)) {
		p.t.Fatalf("%s: replay differs from the computed answer\nreplay:   %s\ncomputed: %s", what, raw, first)
	}
}

// TestReplayInvalidatedByPublishAndRollback: fill, publish, and the same
// bytes are computed again by the new version; then a repeat replays
// that; a rollback — which republishes the old estimator under a fresh
// version — invalidates the same way.
func TestReplayInvalidatedByPublishAndRollback(t *testing.T) {
	svc, srv := newStream(t, serve.Options{}, stream.Options{})
	p := replayProbe{t, srv, dial(t, srv)}
	reg := svc.Registry()
	body := requestBody(t, &stream.Request{Schema: "tpch", Resource: "cpu", Plan: planJSON(t, testPlans[0])})
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

	// Publishing the resource the request did not ask for moves nothing
	// it resolves to.
	reg.Publish("", ioEst)
	p.replayed("after an unrelated publish", body, third)
}

// TestReplayInvalidatedByDedicatedModel: a schema answered by the ""
// fallback gets a model of its own. No version the entry recorded was
// superseded in its slot — the request just resolves elsewhere now.
func TestReplayInvalidatedByDedicatedModel(t *testing.T) {
	svc, srv := newStream(t, serve.Options{}, stream.Options{})
	p := replayProbe{t, srv, dial(t, srv)}
	reg := svc.Registry()
	alpha := requestBody(t, &stream.Request{Schema: "alpha", Resource: "cpu", Plan: planJSON(t, testPlans[0])})
	beta := requestBody(t, &stream.Request{Schema: "beta", Resource: "cpu", Plan: planJSON(t, testPlans[0])})
	fallback, _ := reg.Lookup("", plan.CPUTime)

	firstAlpha := p.computed("alpha by the fallback", alpha, fallback.Info.Version)
	firstBeta := p.computed("beta by the fallback", beta, fallback.Info.Version)
	p.replayed("alpha repeat", alpha, firstAlpha)

	own := reg.Publish("alpha", cpuEst)
	second := p.computed("alpha by its own model", alpha, own.Version)
	p.replayed("alpha repeat on its own model", alpha, second)
	p.replayed("beta, still on the fallback", beta, firstBeta)
}

// TestReplayInvalidatedByEitherResource: a multi-resource answer is
// stamped with every version that computed it and dies with any.
func TestReplayInvalidatedByEitherResource(t *testing.T) {
	svc, srv := newStream(t, serve.Options{}, stream.Options{})
	p := replayProbe{t, srv, dial(t, srv)}
	reg := svc.Registry()
	body := requestBody(t, &stream.Request{Resources: []string{"cpu", "io"}, Plan: planJSON(t, testPlans[1])})
	cpu, _ := reg.Lookup("", plan.CPUTime)

	first := p.computed("first serving", body, cpu.Info.Version)
	p.replayed("repeat", body, first)
	for _, pub := range []struct {
		name string
		est  *core.Estimator
		at   int // the published resource's place in models
	}{{"cpu", cpuEst, 0}, {"io", ioEst, 1}} {
		info := reg.Publish("", pub.est)
		raw, a, replayed := p.send(body)
		if replayed {
			t.Fatalf("publishing %s left the multi-resource answer live", pub.name)
		}
		if len(a.Models) != 2 || a.Models[pub.at].Version != info.Version {
			t.Fatalf("after publishing %s v%d the answer carries %+v", pub.name, info.Version, a.Models)
		}
		p.replayed("repeat after publishing "+pub.name, body, raw)
	}
}

// TestReplayNeverOlderThanPublished races publishers against 64
// requests pipelined on one connection, all the same bytes: once
// Publish has returned a version, no request sent afterwards may be
// answered by an older one, replayed or computed. Run with -race.
func TestReplayNeverOlderThanPublished(t *testing.T) {
	svc, srv := newStream(t, serve.Options{}, stream.Options{})
	cl := dial(t, srv)
	reg := svc.Registry()
	body := requestBody(t, &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[2])})

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
	const pipelined, rounds = 64, 8
	for g := 0; g < pipelined; g++ {
		reqs.Add(1)
		go func() {
			defer reqs.Done()
			for k := 0; k < rounds; k++ {
				floor := published.Load()
				raw, err := cl.EstimateBytes(context.Background(), body)
				if err != nil {
					t.Errorf("estimate: %v", err)
					return
				}
				var a answer
				if err := json.Unmarshal(raw, &a); err != nil {
					t.Errorf("response does not decode: %v", err)
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
	if st := srv.Stats(); st.ReplayHits+st.ReplayMisses != pipelined*rounds || st.Responses != pipelined*rounds {
		t.Fatalf("counters after %d requests: %+v", pipelined*rounds, st)
	}
}

// TestReplayFilesOnlyFramedAnswers: error frames — the handler's own and
// a dispatch's — are never filed, nor is an answer too large to frame.
func TestReplayFilesOnlyFramedAnswers(t *testing.T) {
	setup(t)
	svc := serve.New(serve.Options{})
	t.Cleanup(svc.Close)
	svc.Registry().Publish("tpch", cpuEst) // no fallback: other schemas fail at dispatch
	srv, err := stream.Start("127.0.0.1:0", stream.Options{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := dial(t, srv)

	for _, tc := range []struct {
		name, code string
		body       []byte
	}{
		{"refused by the handler", "unknown_resource", []byte(`{"schema":"tpch","resource":"gpu","plan":{}}`)},
		{"refused at dispatch", "unknown_schema", requestBody(t, &stream.Request{Schema: "other", Resource: "cpu", Plan: planJSON(t, testPlans[0])})},
	} {
		for k := 0; k < 2; k++ {
			_, err := cl.EstimateBytes(context.Background(), tc.body)
			var se *stream.Error
			if !errors.As(err, &se) || se.Code != tc.code {
				t.Fatalf("%s, serving %d: err = %v, want code %s", tc.name, k, err, tc.code)
			}
		}
	}
	if st := srv.Stats(); st.ReplayHits != 0 || st.Errors != 4 {
		t.Fatalf("after four refused requests: %+v", st)
	}

	// An answer over the frame limit: a real response — it carries the
	// versions that computed it — grown past 8 MiB, sent for a request
	// whose bytes the server has not seen; and one grown past the cache's
	// bound on an entry, which frames and still must not fill. The same
	// call with the response as it was does file it, so the size is what
	// refused.
	resps, err := svc.EstimateStream(context.Background(), serve.BatchRequest{
		Schema: "tpch", Resource: plan.CPUTime, Plans: []*plan.Plan{testPlans[0]},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	grown := func(operators int) *serve.Response {
		r := *resps[0]
		r.Operators = make([]serve.OperatorEstimate, operators)
		for i := range r.Operators {
			r.Operators[i] = serve.OperatorEstimate{ID: i, Kind: "TableScan", Estimate: 1.5}
		}
		return &r
	}
	p := replayProbe{t, srv, cl}
	body := requestBody(t, &stream.Request{Schema: "tpch", Resource: "cpu", Plan: planJSON(t, testPlans[0])})
	srv.SendResponse(string(body), "tpch", grown(300_000))
	if st := srv.Stats(); st.Errors != 5 {
		t.Fatalf("the grown response was not refused by the framer: %+v", st)
	}
	first := p.computed("after an answer too large to frame", body, resps[0].Model.Version)
	body = append(body, ' ') // other bytes, same request
	srv.SendResponse(string(body), "tpch", grown(40_000))
	if st := srv.Stats(); st.Errors != 5 {
		t.Fatalf("a response over the cache's entry bound did not frame: %+v", st)
	}
	p.computed("after an answer too large to file", body, resps[0].Model.Version)
	body = append(body, ' ')
	srv.SendResponse(string(body), "tpch", resps[0])
	p.replayed("after an answer that framed", body, first)
}

// post sends body to the service's POST /estimate and returns the
// answer's bytes.
func post(t testing.TB, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP status %d: %s (%v)", resp.StatusCode, raw, err)
	}
	return raw
}

// TestReplayOfDeclinedBody: a body the envelope walker declines — an
// escaped string, a key in another case — decodes through
// encoding/json, and is filed and replayed like any other: both
// servings are the bytes POST /estimate computes for the same request
// once warm (asked under other bytes — trailing spaces — so that what
// answers is a computation, not this cache).
func TestReplayOfDeclinedBody(t *testing.T) {
	svc, srv := newStream(t, serve.Options{}, stream.Options{})
	httpSrv := httptest.NewServer(svc.Handler())
	t.Cleanup(httpSrv.Close)
	p := replayProbe{t, srv, dial(t, srv)}
	pj := planJSON(t, testPlans[3])
	for name, body := range map[string][]byte{
		"escaped string": []byte(`{"resource":"\u0063pu","plan":` + string(pj) + `}`),
		"folded key":     []byte(`{"Resource":"cpu","plan":` + string(pj) + `}`),
	} {
		if stream.WalkerDecodes(body) {
			t.Fatalf("%s: the walker took the body", name)
		}
		post(t, httpSrv.URL, append(bytes.Clone(body), ' '))
		want := post(t, httpSrv.URL, append(bytes.Clone(body), ' ', ' ')) // the warm one
		computed, _, replayed := p.send(body)
		if replayed {
			t.Fatalf("%s: first serving was a replay", name)
		}
		replay, _, replayed := p.send(body)
		if !replayed {
			t.Fatalf("%s: second serving was computed", name)
		}
		if !bytes.Equal(computed, want) || !bytes.Equal(replay, want) {
			t.Fatalf("%s: stream servings differ from the warm /estimate body\ncomputed: %s\nreplay:   %s\nhttp:     %s",
				name, computed, replay, want)
		}
	}
}

// TestOneCacheUnderBothTransports: a body POST /estimate answered
// replays on the stream without a dispatch, and a body the stream
// answered replays over HTTP without a job — byte for byte the answer
// the other transport filed — while each transport's replay counters
// count its own requests only; a publish kills the entry for both.
func TestOneCacheUnderBothTransports(t *testing.T) {
	svc, srv := newStream(t, serve.Options{}, stream.Options{})
	svc.Obs().Register(srv.Collector())
	httpSrv := httptest.NewServer(svc.Handler())
	t.Cleanup(httpSrv.Close)
	p := replayProbe{t, srv, dial(t, srv)}
	cpu, _ := svc.Registry().Lookup("", plan.CPUTime)
	// The pool's queue_wait stage is observed once per job.
	jobs := func() uint64 {
		var buf bytes.Buffer
		if err := svc.Obs().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		const name = `resserve_stage_duration_seconds_count{endpoint="estimate",stage="queue_wait"} `
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatal("no queue_wait count for the estimate endpoint")
		return 0
	}
	series := func() (out [4]string) {
		var buf bytes.Buffer
		if err := svc.Obs().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{
			"resserve_estimate_replay_hits_total", "resserve_estimate_replay_misses_total",
			"resserve_stream_replay_hits_total", "resserve_stream_replay_misses_total",
		} {
			for _, line := range strings.Split(buf.String(), "\n") {
				if v, ok := strings.CutPrefix(line, name+" "); ok {
					out[i] = v
				}
			}
		}
		return out
	}

	// HTTP first, then the stream.
	viaHTTP := requestBody(t, &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[0])})
	post(t, httpSrv.URL, viaHTTP)
	if got := series(); got != [4]string{"0", "1", "0", "0"} {
		t.Fatalf("after one POST: estimate hits, misses, stream hits, misses = %v", got)
	}
	raw, a, replayed := p.send(viaHTTP) // checks Dispatches did not move on a replay
	if !replayed || a.CacheMisses != 0 || a.CacheHits != len(a.Operators) {
		t.Fatalf("a body answered over HTTP was computed again on the stream (replayed %v): %s", replayed, raw)
	}
	if got := series(); got != [4]string{"0", "1", "1", "0"} {
		t.Fatalf("after the stream replayed it: estimate hits, misses, stream hits, misses = %v", got)
	}
	if again := post(t, httpSrv.URL, viaHTTP); !bytes.Equal(again, raw) {
		t.Fatalf("the two transports replay different bytes\nhttp:   %s\nstream: %s", again, raw)
	}

	// The stream first, then HTTP.
	viaStream := requestBody(t, &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[1])})
	first := p.computed("first serving, on the stream", viaStream, cpu.Info.Version)
	before := jobs()
	again := post(t, httpSrv.URL, viaStream)
	if jobs() != before {
		t.Fatal("a body answered on the stream ran a job over HTTP")
	}
	p.replayed("on the stream", viaStream, first)
	if replay, _, _ := p.send(viaStream); !bytes.Equal(again, replay) {
		t.Fatalf("the two transports replay different bytes\nhttp:   %s\nstream: %s", again, replay)
	}
	if got := series(); got != [4]string{"2", "1", "3", "1"} {
		t.Fatalf("at the end: estimate hits, misses, stream hits, misses = %v", got)
	}

	// One entry, so one death: a publish makes the next serving on either
	// transport a computation, which the other then replays.
	v2 := svc.Registry().Publish("", cpuEst)
	before = jobs()
	var got answer
	if err := json.Unmarshal(post(t, httpSrv.URL, viaStream), &got); err != nil || got.Model.Version != v2.Version || jobs() != before+1 {
		t.Fatalf("after a publish HTTP answered v%d with %d jobs (%v)", got.Model.Version, jobs()-before, err)
	}
	if _, a, replayed := p.send(viaStream); !replayed || a.Model.Version != v2.Version {
		t.Fatalf("the stream did not replay HTTP's answer under v%d: replayed %v, v%d", v2.Version, replayed, a.Model.Version)
	}
}

// TestReplayOffWithPredictionCache: the one switch is the service's —
// with the prediction cache disabled nothing is probed, counted or
// filed, and every repeat is computed.
func TestReplayOffWithPredictionCache(t *testing.T) {
	_, srv := newStream(t, serve.Options{CacheEntries: -1}, stream.Options{})
	cl := dial(t, srv)
	body := requestBody(t, &stream.Request{Resource: "cpu", Plan: planJSON(t, testPlans[0])})
	var first []byte
	for k := 0; k < 3; k++ {
		raw, err := cl.EstimateBytes(context.Background(), body)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			first = raw
		} else if !bytes.Equal(raw, first) {
			t.Fatalf("serving %d differs with every cache off\nfirst: %s\nnow:   %s", k, first, raw)
		}
	}
	if st := srv.Stats(); st.ReplayHits != 0 || st.ReplayMisses != 0 || st.Dispatches != 3 {
		t.Fatalf("with the prediction cache off: %+v", st)
	}
}

// TestReplayHitAllocatesNothing pins the hit path's cost on the read
// loop to a lookup and a copy: probing the cache with the frame's
// bytes, asking the registry whether the entry's versions still serve,
// and appending the answer frame to the connection's writer build no
// string and allocate nothing.
func TestReplayHitAllocatesNothing(t *testing.T) {
	_, srv := newStream(t, serve.Options{}, stream.Options{})
	p := replayProbe{t, srv, dial(t, srv)}
	body := requestBody(t, &stream.Request{Schema: "tpch", Resources: []string{"cpu", "io"}, Plan: planJSON(t, testPlans[0])})
	p.send(body)
	handle, stop := srv.HandlerOnDiscard()
	defer stop()
	f := stream.Frame{Type: stream.FrameEstimate, Body: body}
	if n := testing.AllocsPerRun(2000, func() {
		f.Seq++
		handle(&f)
	}); n != 0 {
		t.Errorf("a replay allocates %v times, want 0", n)
	}
	if st := srv.Stats(); st.ReplayHits != 2001 || st.Dispatches != 1 {
		t.Fatalf("the measured requests were not all replays: %+v", st)
	}
}

// replayBench stands a server up and answers body once, so that every
// later serving of it is a replay of the returned bytes.
func replayBench(b *testing.B) (srv *stream.Server, cl *stream.Client, body, want []byte) {
	_, srv = newStream(b, serve.Options{}, stream.Options{})
	cl = dial(b, srv)
	body = requestBody(b, &stream.Request{Schema: "tpch", Resource: "cpu", Plan: planJSON(b, testPlans[0])})
	p := replayProbe{b, srv, cl}
	p.send(body)
	want, _, _ = p.send(body)
	return srv, cl, body, want
}

// BenchmarkStreamReplay is a repeated request at a replica, client to
// client over loopback with 64 in flight on one connection — the
// replica's counterpart of the router's BenchmarkProxyHit, which drives
// the same cache one tier up the same way.
func BenchmarkStreamReplay(b *testing.B) {
	srv, cl, body, want := replayBench(b)
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				resp, err := cl.EstimateBytes(context.Background(), body)
				if err != nil || !bytes.Equal(resp, want) {
					b.Errorf("answer %s, error %v", resp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if st := srv.Stats(); st.Dispatches != 1 {
		b.Fatalf("%d dispatches: the repeats were computed", st.Dispatches)
	}
}

// BenchmarkStreamReplayParallel is the server's share of that alone —
// probe, liveness check, answer queued — run as every connection's read
// loop runs it: concurrently, against the one cache and its one mutex.
// ns/op rising with -cpu is that mutex contended.
func BenchmarkStreamReplayParallel(b *testing.B) {
	srv, _, body, _ := replayBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		handle, stop := srv.HandlerOnDiscard()
		defer stop()
		f := stream.Frame{Type: stream.FrameEstimate, Body: body}
		for pb.Next() {
			f.Seq++
			handle(&f)
		}
	})
	b.StopTimer()
	if st := srv.Stats(); st.Dispatches != 1 {
		b.Fatalf("%d dispatches: the repeats were computed", st.Dispatches)
	}
}
