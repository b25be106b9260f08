package serve_test

// Tests for the append encoders under MarshalWire and writeJSON: the
// differential contract against the encoding/json encoder, the guard
// that real responses take the fast path, and its allocation budget.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/plan"
	"repro/internal/serve"
)

// checkWireAgainstStd runs one value through the append encoder and
// the encoding/json encoder, asserts the differential contract — the
// append encoder declines, or its bytes are stdlib's; either way
// MarshalWire answers what stdlib answers — and reports whether the
// fast path took it.
func checkWireAgainstStd(t *testing.T, v any) (fastTook bool) {
	t.Helper()
	ref, refErr := serve.MarshalStd(v)
	got, err := serve.MarshalWire(v)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("MarshalWire error %v, stdlib %v", err, refErr)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("MarshalWire wrote\n%s\nstdlib\n%s", got, ref)
	}
	fast, ok := serve.AppendWire(nil, v)
	if !ok {
		return false
	}
	if refErr != nil {
		t.Fatalf("fast path encoded a value stdlib refuses (%v):\n%s", refErr, fast)
	}
	if !bytes.Equal(fast, ref) {
		t.Fatalf("fast path wrote\n%s\nstdlib\n%s", fast, ref)
	}
	return true
}

// servedResponses estimates every test plan three ways — single
// resource, both resources, one batch of both — on a store-less
// service and returns the responses.
func servedResponses(t testing.TB) (single, multi []*serve.Response, batch *serve.BatchResponse) {
	t.Helper()
	svc := newService(t, serve.Options{})
	svc.Registry().Publish("tpch", cpuEst)
	svc.Registry().PublishAs("tpch", ioEst, "upload")
	both := []plan.ResourceKind{plan.LogicalIO, plan.CPUTime}
	ctx := context.Background()
	for _, p := range testPlans {
		r, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Resource: plan.CPUTime, Plan: p})
		if err != nil {
			t.Fatal(err)
		}
		single = append(single, r)
		if r, err = svc.Estimate(ctx, serve.Request{Schema: "tpch", Resources: both, Plan: p}); err != nil {
			t.Fatal(err)
		}
		multi = append(multi, r)
	}
	batch, err := svc.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch", Resources: both, Plans: testPlans})
	if err != nil {
		t.Fatal(err)
	}
	return single, multi, batch
}

// TestWireEncoderTakesServedResponses is the differential over real
// responses and the guard on the gain itself: an encoder that declined
// them would pass every byte-identity test at stdlib speed. The
// decoded copies are what a client-side re-encode sees (empty lists in
// place of absent ones, a timestamp without its monotonic reading).
func TestWireEncoderTakesServedResponses(t *testing.T) {
	single, multi, batch := servedResponses(t)
	var values []any
	for i := range single {
		values = append(values, single[i], multi[i])
	}
	values = append(values, batch)
	for _, v := range values[:len(values):len(values)] {
		enc, err := serve.MarshalStd(v)
		if err != nil {
			t.Fatal(err)
		}
		var decoded any = new(serve.Response)
		if _, ok := v.(*serve.BatchResponse); ok {
			decoded = new(serve.BatchResponse)
		}
		if err := json.Unmarshal(enc, decoded); err != nil {
			t.Fatal(err)
		}
		values = append(values, decoded)
	}
	for _, v := range values {
		if !checkWireAgainstStd(t, v) {
			t.Fatalf("fast path declined a served response: %+v", v)
		}
	}
	t.Logf("fast path took %d of %d responses", len(values), len(values))
}

// TestReplayWireMovesOnlyTheCounters: what the stream listener files for
// a repeat is the response re-encoded with every operator a hit — under
// either encoder, whatever the counters were, including a sum a digit
// longer than its terms — and nothing else of it.
func TestReplayWireMovesOnlyTheCounters(t *testing.T) {
	single, multi, _ := servedResponses(t)
	for _, r := range append(single, multi...) {
		for _, counters := range [][2]int{{r.CacheHits, r.CacheMisses}, {0, len(r.Operators)}, {len(r.Operators), 0}, {99, 1}, {5, 7}} {
			cold := *r
			cold.CacheHits, cold.CacheMisses = counters[0], counters[1]
			warm := cold
			warm.CacheHits, warm.CacheMisses = counters[0]+counters[1], 0
			want, err := serve.MarshalStd(&warm)
			if err != nil {
				t.Fatal(err)
			}
			for name, marshal := range map[string]func(any) ([]byte, error){"append": serve.MarshalWire, "stdlib": serve.MarshalStd} {
				body, err := marshal(&cold)
				if err != nil {
					t.Fatal(err)
				}
				if got := serve.ReplayWire(body, &cold); !bytes.Equal(got, want) {
					t.Fatalf("%s encoding, counters %v: replay\n%s\nwant\n%s", name, counters, got, want)
				}
			}
		}
	}
	if got := serve.ReplayWire([]byte("{}\n"), &serve.Response{CacheMisses: 1}); got != nil {
		t.Fatalf("a body without the counters replayed as %s", got)
	}
}

func TestWireEncoderEdgeCases(t *testing.T) {
	single, multi, batch := servedResponses(t)
	edit := func(mutate func(r *serve.Response)) *serve.Response {
		r := *multi[0]
		r.Operators = append([]serve.OperatorEstimate(nil), r.Operators...)
		r.Pipelines = append([]serve.PipelineEstimate(nil), r.Pipelines...)
		mutate(&r)
		return &r
	}
	editBatch := func(mutate func(r *serve.BatchResponse)) *serve.BatchResponse {
		r := *batch
		r.Plans = append([]serve.PlanEstimate(nil), r.Plans...)
		mutate(&r)
		return &r
	}
	var nilResponse *serve.Response
	for _, c := range []struct {
		name string
		v    any
		fast bool
	}{
		{"number formats", edit(func(r *serve.Response) {
			r.Total = 1e21
			r.Totals = []float64{1e-7, 5e-324, math.Copysign(0, -1), 999999999999999868928, 1e-6, 123456.789}
			r.Operators[0].Estimate = -2.5e-10
		}), true},
		{"nil lists", edit(func(r *serve.Response) {
			r.Operators, r.Pipelines, r.Models, r.Resources, r.Totals = nil, nil, nil, nil, nil
		}), true},
		{"empty lists", edit(func(r *serve.Response) {
			r.Operators, r.Pipelines = []serve.OperatorEstimate{}, []serve.PipelineEstimate{}
			r.Models, r.Resources, r.Totals = []serve.ModelInfo{}, []string{}, []float64{}
		}), true},
		{"nil pipeline operators", edit(func(r *serve.Response) { r.Pipelines[0].Operators = nil }), true},
		{"zero response", &serve.Response{}, true},
		{"zero batch", &serve.BatchResponse{}, true},
		{"empty batch", editBatch(func(r *serve.BatchResponse) { r.Plans = []serve.PlanEstimate{} }), true},
		{"NaN total", edit(func(r *serve.Response) { r.Total = math.NaN() }), false},
		{"Inf operator estimate", edit(func(r *serve.Response) { r.Operators[0].Estimates = []float64{1, math.Inf(1)} }), false},
		{"NaN in a batch", editBatch(func(r *serve.BatchResponse) { r.Plans[1].Total = math.NaN() }), false},
		// ModelInfo is encoding/json's own encoding, kept per value.
		{"html in the schema", edit(func(r *serve.Response) { r.Model.Schema = "<a&b>" }), true},
		{"quote in a models entry", edit(func(r *serve.Response) {
			r.Models = append([]serve.ModelInfo(nil), r.Models...)
			r.Models[1].Source = `up"load`
		}), true},
		{"non-ASCII operator kind", edit(func(r *serve.Response) { r.Operators[0].Kind = "Sört" }), false},
		{"escape in a resource name", edit(func(r *serve.Response) { r.Resources = []string{"cpu", "i\to"} }), false},
		{"explain attached", edit(func(r *serve.Response) { r.Explain = &serve.ExplainInfo{} }), false},
		{"response by value", *single[0], false},
		{"nil response", nilResponse, false},
		{"another type", map[string]string{"status": "<ok>"}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if took := checkWireAgainstStd(t, c.v); took != c.fast {
				t.Fatalf("fast path took it = %v, want %v", took, c.fast)
			}
		})
	}
}

// wireFuzzInput turns fuzz bytes into response values: counts and IDs
// from single bytes, floats from their raw bits — so ±0, subnormals,
// NaN and the infinities all occur — or, on an odd control byte, the
// previous float again, so equal adjacent fields are common too.
type wireFuzzInput struct {
	b    []byte
	last float64
}

func (in *wireFuzzInput) byte() byte {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return c
}

func (in *wireFuzzInput) float() float64 {
	if in.byte()&1 == 1 {
		return in.last
	}
	var bits uint64
	for range 8 {
		bits = bits<<8 | uint64(in.byte())
	}
	in.last = math.Float64frombits(bits)
	return in.last
}

func (in *wireFuzzInput) floats(n int) []float64 {
	if n == 0 {
		return nil // a single-resource response carries no lists
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = in.float()
	}
	return fs
}

func (in *wireFuzzInput) planEstimate(resources int) serve.PlanEstimate {
	pe := serve.PlanEstimate{Total: in.float(), Totals: in.floats(resources)}
	for range in.byte() % 4 {
		pe.Operators = append(pe.Operators, serve.OperatorEstimate{
			ID: int(in.byte()), Kind: "HashJoin", Estimate: in.float(), Estimates: in.floats(resources)})
	}
	for range in.byte() % 3 {
		pl := serve.PipelineEstimate{ID: int(in.byte()), Estimate: in.float(), Estimates: in.floats(resources)}
		for range in.byte() % 3 {
			pl.Operators = append(pl.Operators, int(in.byte()))
		}
		pe.Pipelines = append(pe.Pipelines, pl)
	}
	return pe
}

// wireFuzzSeed writes the bytes wireFuzzInput reads back.
type wireFuzzSeed []byte

func (s wireFuzzSeed) n(c ...byte) wireFuzzSeed { return append(s, c...) }
func (s wireFuzzSeed) repeat() wireFuzzSeed     { return append(s, 1) }
func (s wireFuzzSeed) f(x float64) wireFuzzSeed {
	s = append(s, 0)
	for shift := 56; shift >= 0; shift -= 8 {
		s = append(s, byte(math.Float64bits(x)>>shift))
	}
	return s
}

// FuzzWireEncode holds the append encoder to encoding/json's bytes, or
// to declining, on a Response and a BatchResponse built from the
// input: in particular the encoder's copy of a repeated float must
// follow the bits, never ==.
func FuzzWireEncode(f *testing.F) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	for _, seed := range []wireFuzzSeed{
		// +0 next to -0: total +0, totals [-0, +0]; an operator -0, [+0, +0]
		wireFuzzSeed{}.n(2).f(0).f(negZero).f(0).n(1, 7).f(negZero).f(0).repeat().n(0, 3, 4),
		// a NaN after a repeat, then its repeat
		wireFuzzSeed{}.n(2).f(1.5).repeat().f(nan).n(1, 2).repeat().f(2).n(0, 0, 0),
		// a batch of two plans: shared primaries, a subnormal, 1e21
		wireFuzzSeed{}.n(2).f(123.456).repeat().f(7e-7).n(0, 0, 0, 0).n(5, 2).
			f(5e-324).repeat().f(1e21).n(1, 3).f(-2.5e-10).repeat().f(-2.5e-10).n(1, 4).f(9).repeat().f(9).n(2, 3, 4).
			f(1e-7).repeat().f(0).n(0, 0),
		// single-resource: one value everywhere, no lists
		wireFuzzSeed{}.n(0).f(42).n(1, 1).f(42).n(1, 1).f(42).n(1, 1, 0, 0, 1, 1).f(0.1).n(0, 0),
		// an infinity declines the response, a repeat of it the batch
		wireFuzzSeed{}.n(1).f(math.Inf(-1)).repeat().n(0, 0, 0, 0, 0, 1).repeat().repeat().n(0, 0),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		in := wireFuzzInput{b: b}
		resources := int(in.byte() % 3)
		header := func() (serve.ModelInfo, []serve.ModelInfo, []string) {
			model := serve.ModelInfo{Schema: "tpch", Resource: "cpu", Mode: "shared", Version: 3}
			if resources == 0 {
				return model, nil, nil
			}
			io := model
			io.Resource, io.Version = "io", 4
			return model, []serve.ModelInfo{model, io}[:resources], []string{"cpu", "io"}[:resources]
		}
		r := &serve.Response{PlanEstimate: in.planEstimate(resources)}
		r.Model, r.Models, r.Resources = header()
		r.CacheHits, r.CacheMisses = int(in.byte()), int(in.byte())
		checkWireAgainstStd(t, r)

		batch := &serve.BatchResponse{CacheHits: int(in.byte())}
		batch.Model, batch.Models, batch.Resources = header()
		for range in.byte() % 4 {
			batch.Plans = append(batch.Plans, in.planEstimate(resources))
		}
		checkWireAgainstStd(t, batch)
	})
}

// TestWireEncoderAllocs pins the append encoder to its output buffer:
// into one that is large enough it allocates nothing (MarshalWire and
// writeJSON hand it a pooled one, whose reuse the race detector makes
// random, so their own counts are only logged).
func TestWireEncoderAllocs(t *testing.T) {
	single, _, batch := servedResponses(t)
	buf := make([]byte, 0, 1<<20)
	for _, c := range []struct {
		name string
		v    any
	}{{"single", single[0]}, {"batch", batch}} {
		got := testing.AllocsPerRun(100, func() {
			if _, ok := serve.AppendWire(buf[:0], c.v); !ok {
				t.Fatal("fast path declined")
			}
		})
		pooled := testing.AllocsPerRun(100, func() {
			if _, err := serve.MarshalWire(c.v); err != nil {
				t.Fatal(err)
			}
		})
		std := testing.AllocsPerRun(100, func() {
			if _, err := serve.MarshalStd(c.v); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: append encoder %.0f allocs, MarshalWire %.0f, encoding/json %.0f", c.name, got, pooled, std)
		if got > 0 {
			t.Errorf("%s: append encoder allocates %.0f times into a large enough buffer, want 0", c.name, got)
		}
	}
}

var sinkWire []byte

// BenchmarkMarshalWire encodes one single-resource response and one
// two-resource batch of 64, the shapes serve.encode_ns measures.
func BenchmarkMarshalWire(b *testing.B) {
	setup(b)
	svc := newService(b, serve.Options{})
	svc.Registry().Publish("tpch", cpuEst)
	svc.Registry().Publish("tpch", ioEst)
	ctx := context.Background()
	single, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Resource: plan.CPUTime, Plan: testPlans[0]})
	if err != nil {
		b.Fatal(err)
	}
	plans := make([]*plan.Plan, 64)
	for i := range plans {
		plans[i] = testPlans[i%len(testPlans)]
	}
	batch, err := svc.EstimateBatch(ctx, serve.BatchRequest{Schema: "tpch",
		Resources: []plan.ResourceKind{plan.CPUTime, plan.LogicalIO}, Plans: plans})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		v      any
		encode func(any) ([]byte, error)
	}{
		{"single", single, serve.MarshalWire},
		{"single_stdlib", single, serve.MarshalStd},
		{"batch64", batch, serve.MarshalWire},
		{"batch64_stdlib", batch, serve.MarshalStd},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sinkWire, err = bc.encode(bc.v); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(sinkWire)))
		})
	}
}
