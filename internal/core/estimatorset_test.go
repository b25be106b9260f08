package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/plan"
	"repro/internal/workload"
)

// trainedEstimatorPair trains one small CPU and one small I/O estimator
// on the same executed workload and returns a held-out plan set.
func trainedEstimatorPair(t *testing.T) (cpu, io *Estimator, test []*plan.Plan) {
	t.Helper()
	cfg := workload.Config{Seed: 83, N: 80, SFs: []float64{1, 2}, Z: 2, Corr: 0.85}
	qs := workload.GenTPCH(cfg)
	eng := engine.New(nil)
	var plans []*plan.Plan
	for _, q := range qs {
		eng.Run(q.Plan)
		plans = append(plans, q.Plan)
	}
	tcfg := DefaultConfig()
	tcfg.Mart.Iterations = 40
	var err error
	cpu, err = Train(plans[:60], plan.CPUTime, NewScaleTable(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	io, err = Train(plans[:60], plan.LogicalIO, NewScaleTable(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return cpu, io, plans[60:]
}

// TestEstimatorSetMatchesMembers is the multi-resource equivalence
// property: every per-resource component of PredictAllBatch /
// PredictPlanAll / PredictPlansAll must equal the
// member estimator's own prediction bit for bit — the fan-out shares
// inputs, never arithmetic.
func TestEstimatorSetMatchesMembers(t *testing.T) {
	cpu, io, test := trainedEstimatorPair(t)
	set, err := NewEstimatorSet(cpu, io)
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Resources(); len(got) != 2 || got[0] != plan.CPUTime || got[1] != plan.LogicalIO {
		t.Fatalf("resources = %v", got)
	}

	vecs, offs := features.ExtractPlans(test, set.Mode)
	kinds := make([]plan.OpKind, len(vecs))
	for i, p := range test {
		for j, n := range p.Nodes() {
			kinds[offs[i]+j] = n.Kind
		}
	}

	// Batched fan-out, including the out-slice reuse path.
	batch := set.PredictAllBatch(kinds, vecs, nil)
	reused := set.PredictAllBatch(kinds, vecs, batch)
	wantCPUs := cpu.PredictBatch(kinds, vecs, nil)
	wantIOs := io.PredictBatch(kinds, vecs, nil)
	for i := range vecs {
		if math.Float64bits(batch[i].CPU) != math.Float64bits(wantCPUs[i]) ||
			math.Float64bits(batch[i].IO) != math.Float64bits(wantIOs[i]) {
			t.Fatalf("node %d: PredictAllBatch %+v != members (%v, %v)", i, batch[i], wantCPUs[i], wantIOs[i])
		}
		if reused[i] != batch[i] {
			t.Fatalf("node %d: out-slice reuse diverged", i)
		}
	}

	// Plan-level aggregation.
	totals := set.PredictPlansAll(test)
	for i, p := range test {
		one := set.PredictPlanAll(p)
		if math.Float64bits(one.CPU) != math.Float64bits(cpu.PredictPlan(p)) ||
			math.Float64bits(one.IO) != math.Float64bits(io.PredictPlan(p)) {
			t.Fatalf("plan %d: PredictPlanAll %+v != members", i, one)
		}
		if totals[i] != one {
			t.Fatalf("plan %d: PredictPlansAll %+v != PredictPlanAll %+v", i, totals[i], one)
		}
	}
}

// TestEstimatorSetSingleMember checks a one-resource set behaves like
// the bare estimator and leaves the other component zero.
func TestEstimatorSetSingleMember(t *testing.T) {
	cpu, _, test := trainedEstimatorPair(t)
	set, err := NewEstimatorSet(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if set.Estimator(plan.LogicalIO) != nil {
		t.Fatal("io member should be absent")
	}
	for _, p := range test[:4] {
		got := set.PredictPlanAll(p)
		if got.IO != 0 {
			t.Fatalf("absent resource predicted %v", got.IO)
		}
		if math.Float64bits(got.CPU) != math.Float64bits(cpu.PredictPlan(p)) {
			t.Fatal("cpu component diverged")
		}
	}
}

// TestEstimatorSetConstruction covers the invalid-input surface.
func TestEstimatorSetConstruction(t *testing.T) {
	if _, err := NewEstimatorSet(); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := NewEstimatorSet(nil); err == nil {
		t.Fatal("nil member accepted")
	}
	cpuA := &Estimator{Resource: plan.CPUTime, Mode: features.Exact}
	cpuB := &Estimator{Resource: plan.CPUTime, Mode: features.Exact}
	if _, err := NewEstimatorSet(cpuA, cpuB); err == nil {
		t.Fatal("duplicate resource accepted")
	}
	ioEst := &Estimator{Resource: plan.LogicalIO, Mode: features.Estimated}
	if _, err := NewEstimatorSet(cpuA, ioEst); !errors.Is(err, ErrModeMismatch) {
		t.Fatalf("mode mismatch yielded %v", err)
	}
	if _, err := NewEstimatorSet(&Estimator{Resource: plan.ResourceKind(99)}); err == nil {
		t.Fatal("unknown resource kind accepted")
	}
}
