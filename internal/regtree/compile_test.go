package regtree

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestCompiledBitIdentical proves the flattened segment layout
// reproduces Model.Predict exactly, including linear extrapolation
// beyond the training range.
func TestCompiledBitIdentical(t *testing.T) {
	xs, ys := gen(1200, 3, func(x []float64) float64 {
		return 3*x[0] + 0.5*x[1]*x[1] + 10
	})
	m, err := Train(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(m)
	if len(c.stages) != len(m.Stages) {
		t.Fatalf("compiled %d stages, model has %d", len(c.stages), len(m.Stages))
	}

	rng := xrand.New(17)
	probes := make([][]float64, 0, len(xs)+300)
	probes = append(probes, xs...)
	for i := 0; i < 300; i++ {
		// Extrapolation territory on both sides.
		probes = append(probes, []float64{rng.Range(-1000, 1000), rng.Range(-100, 100)})
	}

	batch := make([]float64, len(probes))
	c.PredictBatch(probes, batch)
	for i, x := range probes {
		want := m.Predict(x)
		if got := c.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("probe %d: compiled Predict %v != model %v", i, got, want)
		}
		if math.Float64bits(batch[i]) != math.Float64bits(want) {
			t.Fatalf("probe %d: PredictBatch %v != model %v", i, batch[i], want)
		}
	}
}
