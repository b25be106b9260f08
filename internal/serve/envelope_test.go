package serve_test

// Tests for the request envelope walker every endpoint shares: the
// differential contract against the encoding/json structs, the guard
// that the bodies real clients send take the fast path, its allocation
// budget, and that nothing decoded from a pooled body aliases it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/feedback"
	"repro/internal/jsonscan"
	"repro/internal/plan"
	"repro/internal/serve"
)

var endpointKeys = []struct {
	name string
	keys serve.EnvelopeKeys
}{
	{"estimate", serve.EstimateKeys},
	{"batch", serve.BatchKeys},
	{"observe", serve.ObserveKeys},
	{"forward", serve.ForwardKeys},
}

// decodePlanStd decodes a canonically shaped plan through
// plan.DecodeJSON's encoding/json path: a key the format does not know
// makes the single-pass decoder decline, and stdlib skips it.
func decodePlanStd(raw []byte) (*plan.Plan, error) {
	return plan.DecodeJSON(append([]byte(`{"":0,`), raw[1:]...))
}

// checkEnvelopeAgainstStd runs one body through the walker and the
// endpoint's encoding/json struct, asserts the differential contract —
// the walker declines, or both yield equal fields and DeepEqual plans,
// a plan the walker built on the way being the plan stdlib decodes from
// the extent stdlib's scan finds — and reports whether the walker took
// it.
func checkEnvelopeAgainstStd(t *testing.T, body []byte, keys serve.EnvelopeKeys) (fastTook bool) {
	t.Helper()
	var fast serve.Envelope
	if !serve.DecodeEnvelope(body, keys, &fast) {
		return false // the stdlib fallback owns this input by construction
	}
	if fast.Built != nil {
		if keys == serve.ForwardKeys {
			t.Fatalf("walker built a plan its caller only forwards: %q", body)
		}
		at := cap(body) - cap(fast.Plan) // Plan aliases body
		if end, ok := jsonscan.ValidValueEnd(body, at, 0); !ok || end != at+len(fast.Plan) {
			t.Fatalf("walker built a plan from body[%d:%d], the value ends at %d (%v): %q",
				at, at+len(fast.Plan), end, ok, body)
		}
		want, err := decodePlanStd(fast.Plan)
		if err != nil || !reflect.DeepEqual(fast.Built, want) {
			t.Fatalf("walker built a plan stdlib does not (%v): %q\nfast %v\nstd  %v", err, fast.Plan, fast.Built, want)
		}
		fast.Built = nil // stdlib leaves the plan in Plan
	}
	ref, err := serve.DecodeRequestStd(body, keys)
	if err != nil {
		t.Fatalf("walker accepted input stdlib rejects: %q (%v)", body, err)
	}
	if _, err := ref.BadPlan(); err != nil {
		t.Fatalf("walker accepted a batch with a bad plan: %q (%v)", body, err)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("walker diverges on %q:\nfast %+v\nref  %+v", body, fast, ref)
	}
	return true
}

// FuzzEnvelopeDecode pins the envelope walker to encoding/json for the
// estimate, batch and observe key sets.
func FuzzEnvelopeDecode(f *testing.F) {
	// The stream transport's FuzzRequestDecode seeds and corpus: the
	// walker grew out of that decoder.
	for _, seed := range []string{
		`{"schema":"tpch","resource":"cpu","plan":{"op":"scan"},"timeout_ms":250}`,
		`{"resources":["cpu","mem"],"plan":[1,[2,"]"],{}]}`,
		`{"resource":"c\u0070u","plan":null,"timeout_ms":-1}`,
		`  {  "plan" : "quoted" , "unknown" : { "x" : [ ] } }  `,
		`{"timeout_ms":007}`,
		`{"schema":"a","schema":"b"}`,
		`[]`,
		`{"resources":"all","plan":{}}`,
		`{"resources":[],"resource":"io","plan":{}}`,
		`{"resources":null,"plan":{}}`,
	} {
		f.Add([]byte(seed))
	}
	files, err := filepath.Glob("../stream/testdata/fuzz/FuzzRequestDecode/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("FuzzRequestDecode corpus: %d files, %v", len(files), err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		seed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add([]byte(seed))
	}
	const good = `{"version":1,"root":{"kind":"TableScan","table":"t","table_rows":8,"table_pages":2,"actual_cpu":1.5}}`
	for _, seed := range []string{
		`{"schema":"tpch","resource":"cpu","model_version":3,"predicted":12.5,"plan":` + good + `}`,
		`{"model_version":3,"plan":` + good + `,"predicted":12.5,"resource":"cpu","schema":"tpch"}`,
		`{"plans":[` + good + `,` + good + `],"resources":"all","schema":"tpch"}`,
		`{"plan":` + good + `,"plan":null}`,
		`{"plans":[` + good + `],"plans":[]}`,
		`{"Schema":"tpch","plan":` + good + `}`,
		`{"schema":"t\u0070ch","plan":` + good + `}`,
		`{"schema":null,"resource":null,"timeout_ms":null,"plan":` + good + `}`,
		`{"model_version":null,"predicted":null,"plan":` + good + `}`,
		`{"timeout_ms":1e3,"plan":` + good + `}`,
		`{"timeout_ms":-0,"plan":` + good + `}`,
		`{"model_version":-1,"plan":` + good + `}`,
		`{"model_version":-0,"plan":` + good + `}`,
		`{"model_version":1.5,"plan":` + good + `}`,
		`{"model_version":18446744073709551615,"plan":` + good + `}`,
		`{"model_version":99999999999999999999,"plan":` + good + `}`,
		`{"predicted":1e999,"plan":` + good + `}`,
		`{"predicted":-0,"plan":` + good + `}`,
		`{"predicted":"12","plan":` + good + `}`,
		`{"plans":{}}`,
		`{"plans":[]}`,
		`{"plans":null}`,
		`{"plans":[null]}`,
		`{"plans":[` + good + `,]}`,
		`{"plans":[` + good + `,{"version":1,"root":{"kind":"Sort"}}]}`,
		`{"plans":[` + good + strings.Repeat(`,`+good, serve.MaxBatchPlans) + `]}`,
		`{"plan":` + good + `} x`,
		`{"plan":` + good + `}{}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range endpointKeys {
			checkEnvelopeAgainstStd(t, body, ep.keys)
		}
	})
}

// benchBodies returns one request body per endpoint for each plan, in
// the shapes real clients marshal: the stream client's Request struct
// (the estimate struct here has the same fields and tags), and maps,
// whose keys encoding/json sorts.
func benchBodies(t testing.TB, plans []*plan.Plan) (estimate, observe [][]byte, batch []byte) {
	t.Helper()
	wires := make([]json.RawMessage, len(plans))
	for i, p := range plans {
		enc, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = enc
	}
	must := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i, w := range wires {
		estimate = append(estimate, must(json.Marshal(&struct {
			Schema    string          `json:"schema,omitempty"`
			Resource  string          `json:"resource,omitempty"`
			Resources []string        `json:"resources,omitempty"`
			TimeoutMS int             `json:"timeout_ms,omitempty"`
			Plan      json.RawMessage `json:"plan"`
		}{Schema: "tpch", Resource: "cpu", Plan: w})))
		observe = append(observe, must(json.Marshal(map[string]any{
			// 1: what a fresh registry stamps on the first model published.
			"schema": "tpch", "resource": "cpu", "model_version": uint64(1),
			"predicted": cpuEst.PredictPlan(plans[i]), "plan": w,
		})))
	}
	batch = must(json.Marshal(map[string]any{"schema": "tpch", "resources": "all", "plans": wires}))
	return estimate, observe, batch
}

// TestEnvelopeWalkerTakesClientBodies guards the gain itself: a walker
// that declined what clients send would fall back on every request,
// pass every correctness test and decode at stdlib speed.
func TestEnvelopeWalkerTakesClientBodies(t *testing.T) {
	setup(t)
	estimate, observe, batch := benchBodies(t, testPlans)
	took, total := 0, 0
	check := func(body []byte, keys serve.EnvelopeKeys) {
		total++
		if checkEnvelopeAgainstStd(t, body, keys) {
			took++
		} else {
			t.Errorf("walker declined a client body: %.200s", body)
		}
		var env serve.Envelope
		if serve.DecodeEnvelope(body, keys, &env); keys != serve.BatchKeys && env.Built == nil {
			t.Errorf("walker left a client's plan for a second pass: %.200s", body)
		}
	}
	for i := range estimate {
		check(estimate[i], serve.EstimateKeys)
		check(observe[i], serve.ObserveKeys)
	}
	check(batch, serve.BatchKeys)
	t.Logf("walker took %d of %d client bodies", took, total)
}

// TestEnvelopeWalkerAllocs pins the walker's allocations. Forwarding,
// it copies out the routing strings and aliases the plan. Estimating,
// it builds the plan in the same pass, for what the plan holds: the
// Plan, one node chunk, the tag and a string per table — one fewer than
// the walk followed by plan.DecodeJSON took, and no more than 8 on a
// body the benchmark sends.
func TestEnvelopeWalkerAllocs(t *testing.T) {
	setup(t)
	estimate, observe, _ := benchBodies(t, testPlans[:1])
	build := 5.0 // schema, resource, Plan, node chunk, tag
	for _, n := range testPlans[0].Nodes() {
		if n.Table != "" {
			build++
		}
	}
	if build > 8 {
		t.Fatalf("the first test plan wants %.0f allocations; pick a benchmark-shaped one", build)
	}
	for _, c := range []struct {
		name string
		body []byte
		keys serve.EnvelopeKeys
		want float64
	}{
		{"forward", estimate[0], serve.ForwardKeys, 2}, // schema, resource
		{"estimate", estimate[0], serve.EstimateKeys, build},
		{"observe", observe[0], serve.ObserveKeys, build},
	} {
		got := testing.AllocsPerRun(100, func() {
			var env serve.Envelope
			if !serve.DecodeEnvelope(c.body, c.keys, &env) || (env.Built == nil) != (c.keys == serve.ForwardKeys) {
				t.Fatal("walker declined, or did not build the plan where it should")
			}
		})
		std := testing.AllocsPerRun(100, func() {
			if _, err := serve.DecodeRequestStd(c.body, c.keys); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: walker %.0f allocs, encoding/json (plan undecoded) %.0f", c.name, got, std)
		if got > c.want {
			t.Errorf("%s: walker allocates %.0f times, want at most %.0f", c.name, got, c.want)
		}
	}
}

// BenchmarkDecodeEnvelope times the walker on the bodies the benchmark
// sends, one estimate and a 64-plan batch, building the plans — and,
// beside it, the validating scan alone: what the router's peek pays for
// a single estimate, jsonscan's scan of the whole body for the batch.
// The difference is what building a plan costs on top of reading it.
func BenchmarkDecodeEnvelope(b *testing.B) {
	setup(b)
	plans := make([]*plan.Plan, 64)
	for i := range plans {
		plans[i] = testPlans[i%len(testPlans)]
	}
	estimate, _, batch := benchBodies(b, plans)
	walk := func(keys serve.EnvelopeKeys) func([]byte) bool {
		return func(body []byte) bool {
			var env serve.Envelope
			return serve.DecodeEnvelope(body, keys, &env)
		}
	}
	for _, bc := range []struct {
		name   string
		body   []byte
		decode func([]byte) bool
	}{
		{"single/build", estimate[0], walk(serve.EstimateKeys)},
		{"single/validate", estimate[0], walk(serve.ForwardKeys)},
		{"batch64/build", batch, walk(serve.BatchKeys)},
		{"batch64/validate", batch, func(body []byte) bool {
			end, ok := jsonscan.ValidValueEnd(body, 0, 0)
			return ok && end == len(body)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				if !bc.decode(bc.body) {
					b.Fatal("declined")
				}
			}
		})
	}
}

// TestOverLimitBodyRefused pins the one way reading the whole body
// before decoding changed an answer: a body over the limit is refused
// even when its first JSON value ended inside the limit, where the
// streaming decoder used to stop reading and answer it.
func TestOverLimitBodyRefused(t *testing.T) {
	svc := newService(t, serve.Options{})
	svc.Registry().Publish("tpch", cpuEst)
	enc, err := plan.EncodeJSON(testPlans[0])
	if err != nil {
		t.Fatal(err)
	}
	body := `{"schema":"tpch","plan":` + string(enc) + `}`
	h := svc.Handler()
	for _, c := range []struct {
		name   string
		pad    int
		status int
	}{
		{"trailing whitespace to the limit", serve.MaxEstimateBody - len(body), http.StatusOK},
		{"trailing whitespace past the limit", serve.MaxEstimateBody - len(body) + 1, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/estimate",
			strings.NewReader(body+strings.Repeat(" ", c.pad))))
		if rec.Code != c.status {
			t.Fatalf("%s: status %d, want %d: %.200s", c.name, rec.Code, c.status, rec.Body)
		}
		if c.status != http.StatusOK {
			var e wireErrorJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != "bad_request" || e.Error != "bad request body: http: request body too large" {
				t.Fatalf("%s: answered %s %q", c.name, e.Code, e.Error)
			}
		}
	}
}

// TestDecodedRequestDoesNotAliasBody scribbles over a body once its
// request is decoded — what the pool's next user does to it — and
// requires everything the handlers keep (the routing strings, the
// plans the feedback loop retains) to be untouched.
func TestDecodedRequestDoesNotAliasBody(t *testing.T) {
	setup(t)
	estimate, observe, batch := benchBodies(t, testPlans[:3])
	wire, err := plan.EncodeJSON(testPlans[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
		keys serve.EnvelopeKeys
	}{
		{"estimate", estimate[0], serve.EstimateKeys},
		{"observe", observe[0], serve.ObserveKeys},
		{"batch", batch, serve.BatchKeys},
		// The same through the encoding/json fallback.
		{"estimate, declined", append([]byte(`{"unknown":1,`), estimate[0][1:]...), serve.EstimateKeys},
		{"batch, declined", append([]byte(`{"unknown":1,`), batch[1:]...), serve.BatchKeys},
	} {
		buf := append([]byte(nil), c.body...)
		env, err := serve.DecodeRequest(buf, c.keys)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		plans := env.Plans
		if c.keys != serve.BatchKeys {
			p, err := plan.DecodeJSON(env.Plan)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			plans = []*plan.Plan{p}
		}
		for i := range buf {
			buf[i] = '#'
		}
		if env.Schema != "tpch" || (c.keys != serve.BatchKeys && env.Resource != "cpu") ||
			(c.keys == serve.BatchKeys && !reflect.DeepEqual(env.Resources, serve.ResourceSet{"all"})) {
			t.Errorf("%s: routing fields changed under a scribbled body: %+v", c.name, env)
		}
		got, err := plan.EncodeJSON(plans[0])
		if err != nil || !bytes.Equal(got, wire) {
			t.Errorf("%s: retained plan changed under a scribbled body (%v):\n%s\nwant\n%s", c.name, err, got, wire)
		}
	}
}

// TestPooledBodiesUnderConcurrentHandlers drives every pooled-body
// endpoint from several goroutines while another scribbles over
// whatever the pool holds: under -race, a buffer handed back while a
// handler still reads it is a reported race; without it, a corrupted
// decode fails the request.
func TestPooledBodiesUnderConcurrentHandlers(t *testing.T) {
	reg := serve.NewRegistry()
	// The loop logs, so /observe's append reads the plan's bytes from
	// the pooled body too.
	loop, err := feedback.New(feedback.Options{Dir: t.TempDir(), Publisher: reg, DriftThreshold: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loop.Close() })
	svc := newService(t, serve.Options{Registry: reg, Feedback: loop})
	reg.Publish("tpch", cpuEst)
	reg.Publish("tpch", ioEst)
	estimate, observe, batch := benchBodies(t, testPlans)
	h := svc.Handler()

	stop := make(chan struct{})
	var scribbler sync.WaitGroup
	scribbler.Add(1)
	go func() {
		defer scribbler.Done()
		for {
			select {
			case <-stop:
				return
			default:
				serve.ScribblePooledBodies(4)
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			post := func(path string, body []byte, want int) error {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
				if rec.Code != want {
					return fmt.Errorf("%s: status %d: %.200s", path, rec.Code, rec.Body)
				}
				return nil
			}
			for round := 0; round < 8; round++ {
				for i := g; i < len(estimate); i += 4 {
					err := post("/estimate", estimate[i], http.StatusOK)
					if err == nil {
						err = post("/observe", observe[i], http.StatusAccepted)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				if err := post("/estimate/batch", batch, http.StatusOK); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scribbler.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
