package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
)

func executedPlans(t *testing.T, seed uint64, n int) []*plan.Plan {
	t.Helper()
	cfg := workload.Config{Seed: seed, N: n, SFs: []float64{1, 2}, Z: 2, Corr: 0.85}
	qs := workload.GenTPCH(cfg)
	eng := engine.New(nil)
	plans := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		eng.Run(q.Plan)
		plans[i] = q.Plan
	}
	return plans
}

func TestSetBaselineStampsTrainingError(t *testing.T) {
	plans := executedPlans(t, 31, 64)
	cfg := DefaultConfig()
	cfg.Mart.Iterations = 60
	est, err := Train(plans, plan.CPUTime, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est.SetBaseline(plans)
	b := est.Baseline
	if b == nil {
		t.Fatal("SetBaseline left no baseline")
	}
	if b.N != len(plans) {
		t.Fatalf("baseline over %d plans, want %d", b.N, len(plans))
	}
	if b.Mean <= 0 || b.P90 < b.P50 {
		t.Fatalf("degenerate baseline: %+v", b)
	}
	// Training error on the training workload should be modest — the
	// drift detector depends on the baseline being a tight yardstick.
	if b.Mean > 1 {
		t.Fatalf("baseline mean error %v on own training data", b.Mean)
	}
	// The snapshot must agree with an independent evaluation.
	if again := est.EvalPlans(plans); math.Abs(again.Mean-b.Mean) > 1e-12 ||
		math.Abs(again.P90-b.P90) > 1e-12 {
		t.Fatalf("EvalPlans disagrees with stamped baseline: %+v vs %+v", again, b)
	}
	if empty := est.EvalPlans(nil); empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("EvalPlans on no plans: %+v", empty)
	}
	if _, err := Train(nil, plan.CPUTime, nil, cfg); err == nil {
		t.Fatal("Train accepted no plans")
	}
}

func TestBaselineSurvivesSaveLoad(t *testing.T) {
	plans := executedPlans(t, 32, 48)
	cfg := DefaultConfig()
	cfg.Mart.Iterations = 40
	est, err := Train(plans, plan.LogicalIO, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est.SetBaseline(plans)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Baseline == nil {
		t.Fatal("baseline lost in round trip")
	}
	if *loaded.Baseline != *est.Baseline {
		t.Fatalf("baseline changed: %+v -> %+v", est.Baseline, loaded.Baseline)
	}

	// A model saved without a baseline (pre-feedback file) still loads.
	est.Baseline = nil
	buf.Reset()
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err = LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Baseline != nil {
		t.Fatal("baseline materialized out of nowhere")
	}
}
