package mart

import "testing"

func benchModel(b *testing.B) (*Model, [][]float64) {
	xs, ys := synth(4000, 5, stepFn)
	cfg := testConfig()
	cfg.Iterations = 200
	m, err := Train(xs, ys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m, xs[:256]
}

// BenchmarkPointerWalk is the sequential baseline: one pointer-chasing
// Tree.Predict per tree per sample.
func BenchmarkPointerWalk(b *testing.B) {
	m, xs := benchModel(b)
	out := make([]float64, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, x := range xs {
			out[j] = m.Predict(x)
		}
	}
	b.ReportMetric(float64(len(xs)), "preds/op")
}

// BenchmarkCompiledBatch is the compiled layout over one 256-row batch.
func BenchmarkCompiledBatch(b *testing.B) {
	m, xs := benchModel(b)
	c := Compile(m)
	out := make([]float64, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PredictBatch(xs, out)
	}
	b.ReportMetric(float64(len(xs)), "preds/op")
}

// BenchmarkCompiledSmallGroups is the same 256 rows in groups of 5 — the
// group size the service produces once a batch's misses are split by
// resource, operator and candidate. Per-row cost must not depend on it.
func BenchmarkCompiledSmallGroups(b *testing.B) {
	m, xs := benchModel(b)
	c := Compile(m)
	out := make([]float64, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(xs); lo += 5 {
			hi := min(lo+5, len(xs))
			c.PredictBatch(xs[lo:hi], out[lo:hi])
		}
	}
	b.ReportMetric(float64(len(xs)), "preds/op")
}

// BenchmarkCompile builds the layout of one 200-tree model; a service
// set-up compiles about 80 of them.
func BenchmarkCompile(b *testing.B) {
	m, _ := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCompiled = Compile(m)
	}
}

var benchCompiled *Compiled
