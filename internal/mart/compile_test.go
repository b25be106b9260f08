package mart

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestCompiledBitIdentical proves the flattened layout reproduces the
// pointer walk exactly: every prediction must match bit for bit, both
// through Predict and through PredictRows, inside and outside the
// training range.
func TestCompiledBitIdentical(t *testing.T) {
	xs, ys := synth(1500, 7, stepFn)
	m, err := Train(xs, ys, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(m)
	if c.NumTrees() != m.NumTrees() {
		t.Fatalf("compiled %d trees, model has %d", c.NumTrees(), m.NumTrees())
	}

	rng := xrand.New(99)
	probes := make([][]float64, 0, 2000)
	probes = append(probes, xs...)
	for i := 0; i < 500; i++ {
		// Out-of-range and adversarial values: negatives, huge
		// magnitudes, exact zeros.
		probes = append(probes, []float64{
			rng.Range(-500, 500), rng.Range(-50, 50), rng.Range(-2, 2),
		})
	}
	probes = append(probes, []float64{0, 0, 0}, []float64{1e18, -1e18, math.SmallestNonzeroFloat64})

	batch := make([]float64, len(probes))
	flat, stride := flatRows(probes)
	c.PredictRows(flat, stride, batch, new(Scratch))
	for i, x := range probes {
		want := m.Predict(x)
		if got := c.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("probe %d: compiled Predict %v != model %v", i, got, want)
		}
		if math.Float64bits(batch[i]) != math.Float64bits(want) {
			t.Fatalf("probe %d: PredictRows %v != model %v", i, batch[i], want)
		}
	}
}

// TestCompiledSurvivesCodec checks the decode → compile path used when
// serving persisted models: compiling a DecodeBinary'd model still
// matches its own pointer walk exactly.
func TestCompiledSurvivesCodec(t *testing.T) {
	xs, ys := synth(800, 11, stepFn)
	m, err := Train(xs, ys, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(dec)
	for i := range xs {
		want := dec.Predict(xs[i])
		if got := c.Predict(xs[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: compiled %v != decoded model %v", i, got, want)
		}
	}
}

// TestCompiledEmptyModel covers the degenerate constant model (no trees
// survive training on a flat target).
func TestCompiledEmptyModel(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []float64{5, 5, 5, 5}
	m, err := Train(xs, ys, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(m)
	out := make([]float64, len(xs))
	flat, stride := flatRows(xs)
	c.PredictRows(flat, stride, out, new(Scratch))
	for i, x := range xs {
		want := m.Predict(x)
		if out[i] != want || c.Predict(x) != want {
			t.Fatalf("constant model mismatch: %v vs %v", out[i], want)
		}
	}
}
