package linreg

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestRecoversSparseLinear(t *testing.T) {
	// y depends on features 1 and 3 only, out of 6.
	rng := xrand.New(1)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 400; i++ {
		row := make([]float64, 6)
		for f := range row {
			row[f] = rng.Range(0, 10)
		}
		xs = append(xs, row)
		ys = append(ys, 5+2*row[1]-3*row[3])
	}
	m, err := Train(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Features) != 2 {
		t.Fatalf("selected features %v, want exactly the 2 informative ones", m.Features)
	}
	sel := map[int]bool{}
	for _, f := range m.Features {
		sel[f] = true
	}
	if !sel[1] || !sel[3] {
		t.Fatalf("selected %v, want {1, 3}", m.Features)
	}
	probe := []float64{9, 4, 9, 2, 9, 9}
	want := 5.0 + 8 - 6
	if got := m.Predict(probe); math.Abs(got-want) > 0.01 {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
}

func TestExtrapolatesLinearly(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		v := float64(i)
		xs = append(xs, []float64{v})
		ys = append(ys, 7*v)
	}
	m, err := Train(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Far outside the training range the linear form must hold — the
	// property the paper contrasts against regression trees.
	if got := m.Predict([]float64{10_000}); math.Abs(got-70_000) > 100 {
		t.Fatalf("extrapolation = %v, want ~70000", got)
	}
}

func TestMaxFeaturesCap(t *testing.T) {
	rng := xrand.New(3)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		row := make([]float64, 5)
		for f := range row {
			row[f] = rng.Range(0, 1)
		}
		xs = append(xs, row)
		ys = append(ys, row[0]+row[1]+row[2]+row[3]+row[4])
	}
	cfg := DefaultConfig()
	cfg.MaxFeatures = 2
	m, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Features) > 2 {
		t.Fatalf("cap violated: %v", m.Features)
	}
}

func TestConstantTargetSelectsNothing(t *testing.T) {
	rng := xrand.New(5)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		xs = append(xs, []float64{rng.Float64(), rng.Float64()})
		ys = append(ys, 3.5)
	}
	m, err := Train(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Features) != 0 {
		t.Fatalf("constant target selected features %v", m.Features)
	}
	if got := m.Predict([]float64{0.3, 0.4}); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("constant prediction = %v", got)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, DefaultConfig()); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Fatal("mismatched data accepted")
	}
}
