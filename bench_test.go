package repro

// Benchmark harness: the §7.3 prediction-cost measurement, the serving
// and batch paths, ablation benches for the design choices, and
// training throughput. The paper's tables and figures are `resbench`
// experiments (`resbench -h` lists them), run by internal/experiments'
// tests.
//
// Workload generation, execution and scaling-function selection are
// shared across benchmarks through a lazily built runner.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/mart"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
)

// benchSetup builds the shared runner: sized large enough for stable
// numbers, small enough to keep the full bench suite in minutes.
func benchSetup(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		benchRunner = experiments.NewRunner(experiments.Setup{
			Seed: 1, SizeFactor: 0.25, MartIterations: 200, Noise: -1,
		})
	})
	return benchRunner
}

// BenchmarkPredictionCost measures the §7.3 per-call estimation
// overhead directly: one operator-level costing call per iteration.
func BenchmarkPredictionCost(b *testing.B) {
	r := benchSetup(b)
	train, test := r.SplitTPCH()
	cfg := core.DefaultConfig()
	cfg.Mart.Iterations = 200
	est, err := core.Train(train, plan.CPUTime, r.ScaleTable, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-extract vectors so the benchmark isolates model invocation.
	type call struct {
		om *core.OperatorModels
		v  features.Vector
	}
	var calls []call
	for _, p := range test {
		vecs := features.ExtractPlan(p, features.Exact)
		for i, n := range p.Nodes() {
			if om, ok := est.Ops[n.Kind]; ok {
				calls = append(calls, call{om: om, v: vecs[i]})
			}
		}
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		c := &calls[i%len(calls)]
		sink += c.om.PredictVector(&c.v)
	}
	_ = sink
}

// BenchmarkServing measures the serving request path end to end
// (validation, routing, feature extraction, prediction, aggregation)
// on a repeated plan stream — the production pattern the prediction
// cache exploits. The cached variant should show a clear speedup over
// uncached once the stream wraps around.
func BenchmarkServing(b *testing.B) {
	r := benchSetup(b)
	train, test := r.SplitTPCH()
	cfg := core.DefaultConfig()
	cfg.Mart.Iterations = 200
	est, err := core.Train(train, plan.CPUTime, r.ScaleTable, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		entries int
	}{
		{"uncached", -1},
		{"cached", 1 << 16},
	} {
		b.Run(tc.name, func(b *testing.B) {
			svc := serve.New(serve.Options{CacheEntries: tc.entries})
			defer svc.Close()
			svc.Registry().Publish("tpch", est)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := test[i%len(test)]
				if _, err := svc.Estimate(ctx, serve.Request{Schema: "tpch", Plan: p}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := svc.Metrics().Cache
			if tot := st.Hits + st.Misses; tot > 0 {
				b.ReportMetric(float64(st.Hits)/float64(tot)*100, "cache-hit-%")
			}
		})
	}
}

// BenchmarkEstimateBatch measures the batched estimation hot path
// against the sequential baseline at the HTTP surface: one POST
// /estimate/batch carrying 64 plans versus 64 sequential POST /estimate
// calls for the same plans. Each benchmark op processes the whole
// 64-plan set, so ns/op is directly comparable between the sub-benches;
// the batch path's win comes from amortizing the HTTP round trips,
// request setup and pool dispatch, plus the compiled tree layout and
// the single cache multi-get. Predictions are bit-identical either way
// (see the equivalence tests in internal/core and internal/serve).
func BenchmarkEstimateBatch(b *testing.B) {
	r := benchSetup(b)
	train, test := r.SplitTPCH()
	cfg := core.DefaultConfig()
	cfg.Mart.Iterations = 200
	est, err := core.Train(train, plan.CPUTime, r.ScaleTable, cfg)
	if err != nil {
		b.Fatal(err)
	}

	const batchSize = 64
	plans := make([]*plan.Plan, batchSize)
	singleBodies := make([][]byte, batchSize)
	raws := make([]json.RawMessage, batchSize)
	for i := range plans {
		plans[i] = test[i%len(test)]
		enc, err := plan.EncodeJSON(plans[i])
		if err != nil {
			b.Fatal(err)
		}
		raws[i] = enc
		body, err := json.Marshal(map[string]any{
			"schema": "tpch", "resource": "cpu", "plan": json.RawMessage(enc),
		})
		if err != nil {
			b.Fatal(err)
		}
		singleBodies[i] = body
	}
	batchBody, err := json.Marshal(map[string]any{
		"schema": "tpch", "resource": "cpu", "plans": raws,
	})
	if err != nil {
		b.Fatal(err)
	}

	post := func(b *testing.B, client *http.Client, url string, body []byte) {
		b.Helper()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}

	for _, cache := range []struct {
		name    string
		entries int
	}{
		{"uncached", -1},
		{"cached", 1 << 16},
	} {
		svc := serve.New(serve.Options{CacheEntries: cache.entries})
		svc.Registry().Publish("tpch", est)
		srv := httptest.NewServer(svc.Handler())
		client := srv.Client()

		b.Run(cache.name+"/sequential64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, body := range singleBodies {
					post(b, client, srv.URL+"/estimate", body)
				}
			}
			b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "plans/s")
		})
		b.Run(cache.name+"/batch64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				post(b, client, srv.URL+"/estimate/batch", batchBody)
			}
			b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "plans/s")
		})

		srv.Close()
		svc.Close()
	}
}

// --- Ablation benches (the paper's §6.1 modifications): each reports
// the cross-size generalization L1 (train SF<=4, test SF>=6) under one
// design toggle.

func ablationL1(b *testing.B, mutate func(*core.Config), table *core.ScaleTable) float64 {
	b.Helper()
	r := benchSetup(b)
	small, large := r.SplitBySF()
	cfg := core.DefaultConfig()
	cfg.Mart.Iterations = 200
	if mutate != nil {
		mutate(&cfg)
	}
	est, err := core.Train(small, plan.CPUTime, table, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var l1 float64
	for _, p := range large {
		l1 += stats.L1RelErr(est.PredictPlan(p), p.TotalActual().CPU)
	}
	return l1 / float64(len(large))
}

// BenchmarkAblationFull is the reference point: full SCALING.
func BenchmarkAblationFull(b *testing.B) {
	r := benchSetup(b)
	var l1 float64
	for i := 0; i < b.N; i++ {
		l1 = ablationL1(b, nil, r.ScaleTable)
	}
	b.ReportMetric(l1, "L1")
}

// BenchmarkAblationNoScaling disables combined models entirely (MART).
func BenchmarkAblationNoScaling(b *testing.B) {
	var l1 float64
	for i := 0; i < b.N; i++ {
		l1 = ablationL1(b, func(c *core.Config) { c.DisableScaling = true }, nil)
	}
	b.ReportMetric(l1, "L1")
}

// BenchmarkAblationNoNormalization disables dependent-feature
// normalization (§6.1 modification 3).
func BenchmarkAblationNoNormalization(b *testing.B) {
	r := benchSetup(b)
	var l1 float64
	for i := 0; i < b.N; i++ {
		l1 = ablationL1(b, func(c *core.Config) { c.DisableNormalization = true }, r.ScaleTable)
	}
	b.ReportMetric(l1, "L1")
}

// BenchmarkAblationLinearOnlyScaling replaces the §6.2-selected scaling
// functions with all-linear scaling.
func BenchmarkAblationLinearOnlyScaling(b *testing.B) {
	var l1 float64
	for i := 0; i < b.N; i++ {
		l1 = ablationL1(b, nil, core.NewScaleTable())
	}
	b.ReportMetric(l1, "L1")
}

// BenchmarkAblationMARTSize varies the boosting budget.
func BenchmarkAblationMARTSize(b *testing.B) {
	r := benchSetup(b)
	for _, iters := range []int{50, 200} {
		iters := iters
		b.Run(benchName("iters", iters), func(b *testing.B) {
			var l1 float64
			for i := 0; i < b.N; i++ {
				l1 = ablationL1(b, func(c *core.Config) { c.Mart.Iterations = iters }, r.ScaleTable)
			}
			b.ReportMetric(l1, "L1")
		})
	}
}

func benchName(prefix string, n int) string {
	const digits = "0123456789"
	if n == 0 {
		return prefix + "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%10]
		n /= 10
	}
	return prefix + string(buf[i:])
}

// BenchmarkTrainParallel measures the deterministic parallel training
// pipeline on the resserve -bootstrap workload shape: both resources'
// full (operator × candidate scale-set) sweeps trained as one flattened
// job pool, at increasing worker counts. The sub-benches process the
// identical workload, so ns/op is directly comparable across worker
// counts — and the trained models are bit-identical at every count
// (see internal/core TestTrainBitIdenticalAcrossWorkers), so the only
// thing the workers buy is wall-clock. Allocations are reported to
// track the scratch-buffer reuse in the mart training inner loop.
func BenchmarkTrainParallel(b *testing.B) {
	qs, err := GenerateWorkload(WorkloadOptions{Schema: "tpch", N: 128, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	Execute(qs)
	plans := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		plans[i] = q.Plan
	}
	resources := []plan.ResourceKind{plan.CPUTime, plan.LogicalIO}
	var samples int
	for _, p := range plans {
		samples += len(p.Nodes()) * len(resources)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Mart.Iterations = 100
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.TrainSet(plans, resources, core.NewScaleTable(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(samples)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkMARTTraining isolates raw MART training throughput.
func BenchmarkMARTTraining(b *testing.B) {
	xs, ys := syntheticMatrix(4000)
	cfg := mart.DefaultConfig()
	cfg.Iterations = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mart.Train(xs, ys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePlanExecution measures the simulator itself.
func BenchmarkEnginePlanExecution(b *testing.B) {
	qs := workload.GenTPCH(workload.Config{Seed: 5, N: 64, SFs: []float64{1, 4}, Z: 2, Corr: 0.85})
	eng := engine.New(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(qs[i%len(qs)].Plan)
	}
}

// BenchmarkWorkloadGeneration measures query-plan construction.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		workload.GenTPCH(workload.Config{Seed: uint64(i + 1), N: 16, SFs: []float64{1}, Z: 2, Corr: 0.85})
	}
}

func syntheticMatrix(n int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, 12)
		v := float64(i%997) + 1
		for f := range row {
			row[f] = v * float64(f+1)
		}
		xs[i] = row
		ys[i] = v*3 + v*v/100
	}
	return xs, ys
}
