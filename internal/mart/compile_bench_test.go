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

// BenchmarkCompiledBatch is the compiled flat layout, tree-outer with
// eight interleaved branchless walks.
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
