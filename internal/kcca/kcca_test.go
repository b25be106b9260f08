package kcca

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func TestPlanFeaturesShape(t *testing.T) {
	cfg := workload.Config{Seed: 31, N: 12, SFs: []float64{1}, Z: 2, Corr: 0.85}
	for _, q := range workload.GenTPCH(cfg) {
		v := PlanFeatures(q.Plan)
		var opCount float64
		for i := 0; i < len(v)/2; i++ {
			opCount += v[i]
		}
		if int(opCount) != q.Plan.NumNodes() {
			t.Fatalf("op counts sum to %v, plan has %d nodes", opCount, q.Plan.NumNodes())
		}
	}
}

func TestNearestNeighborRecall(t *testing.T) {
	// k=1 prediction on a training point returns its own target.
	rng := xrand.New(1)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 50; i++ {
		xs = append(xs, []float64{rng.Range(0, 100), rng.Range(0, 100)})
		ys = append(ys, rng.Range(1, 1000))
	}
	m, err := Train(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := m.Predict(xs[i]); math.Abs(got-ys[i]) > 1e-9 {
			t.Fatalf("1-NN on training point: %v, want %v", got, ys[i])
		}
	}
}

func TestPredictionsBoundedByTrainingMax(t *testing.T) {
	// The defining failure mode (§1.1): estimates can never exceed the
	// largest training observation, no matter the query.
	rng := xrand.New(2)
	var xs [][]float64
	var ys []float64
	maxY := math.Inf(-1)
	for i := 0; i < 200; i++ {
		v := rng.Range(0, 10)
		xs = append(xs, []float64{v})
		ys = append(ys, 100*v)
		maxY = math.Max(maxY, 100*v)
	}
	m, err := Train(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	huge := m.Predict([]float64{1e6})
	if huge > maxY {
		t.Fatalf("kNN predicted %v beyond training max %v", huge, maxY)
	}
}

func TestKAveraging(t *testing.T) {
	xs := [][]float64{{0}, {1}, {100}}
	ys := []float64{10, 20, 900}
	m, err := Train(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Near 0.5 the two nearest are the first two points.
	if got := m.Predict([]float64{0.5}); math.Abs(got-15) > 1e-9 {
		t.Fatalf("2-NN average = %v, want 15", got)
	}
}

func TestEndToEndOnWorkload(t *testing.T) {
	cfg := workload.Config{Seed: 33, N: 60, SFs: []float64{1, 2}, Z: 2, Corr: 0.85}
	qs := workload.GenTPCH(cfg)
	eng := engine.New(nil)
	var xs [][]float64
	var ys []float64
	for _, q := range qs {
		r := eng.Run(q.Plan)
		xs = append(xs, PlanFeatures(q.Plan))
		ys = append(ys, r.CPU)
	}
	m, err := Train(xs[:40], ys[:40], 3)
	if err != nil {
		t.Fatal(err)
	}
	// Same-distribution accuracy: within 4x for most queries.
	good := 0
	for i := 40; i < 60; i++ {
		p := m.Predict(xs[i])
		r := p / ys[i]
		if r > 1 {
			r = 1 / r
		}
		if r > 0.25 {
			good++
		}
	}
	if good < 12 {
		t.Fatalf("only %d/20 test queries within 4x", good)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, 3); err == nil {
		t.Fatal("empty data accepted")
	}
}
