package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestPredictBatchMatchesSequential is the batch/sequential equivalence
// property: over random held-out plans, every PredictBatch result must
// equal the per-node PredictVector call bit for bit, and PredictPlans
// must equal PredictPlan.
func TestPredictBatchMatchesSequential(t *testing.T) {
	est, test := trainedEstimator(t)

	vecs, offs := features.ExtractPlans(test, est.Mode)
	kinds := make([]plan.OpKind, len(vecs))
	for i, p := range test {
		for j, n := range p.Nodes() {
			kinds[offs[i]+j] = n.Kind
		}
	}
	got := est.PredictBatch(kinds, vecs, nil)
	for i := range vecs {
		want := est.PredictVector(kinds[i], &vecs[i])
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("item %d (%s): batch %v != sequential %v", i, kinds[i], got[i], want)
		}
	}

	totals := est.PredictPlans(test)
	for i, p := range test {
		want := est.PredictPlan(p)
		if math.Float64bits(totals[i]) != math.Float64bits(want) {
			t.Fatalf("plan %d: PredictPlans %v != PredictPlan %v", i, totals[i], want)
		}
	}
}

// TestPredictBatchRandomVectors pushes the equivalence property onto
// perturbed vectors far outside the training range, where model
// selection switches to scaled candidates — the batch path must make
// the identical per-vector choice.
func TestPredictBatchRandomVectors(t *testing.T) {
	est, test := trainedEstimator(t)
	rng := xrand.New(7)

	var kinds []plan.OpKind
	var vecs []features.Vector
	for _, p := range test {
		base := features.ExtractPlan(p, est.Mode)
		for i, n := range p.Nodes() {
			v := base[i]
			// Scale the magnitude features up to 100x to force
			// out-of-range selection, plus occasional zeros.
			for id := 0; id < int(features.NumFeatures); id++ {
				switch rng.Intn(4) {
				case 0:
					v[id] *= rng.Range(1, 100)
				case 1:
					v[id] = 0
				}
			}
			kinds = append(kinds, n.Kind)
			vecs = append(vecs, v)
		}
	}
	out := est.PredictBatch(kinds, vecs, make([]float64, len(kinds)))
	for i := range vecs {
		want := est.PredictVector(kinds[i], &vecs[i])
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("perturbed item %d (%s): batch %v != sequential %v", i, kinds[i], out[i], want)
		}
	}
}

// TestPredictBatchUnknownOperator checks the fallback-mean path.
func TestPredictBatchUnknownOperator(t *testing.T) {
	est, test := trainedEstimator(t)
	bogus := plan.OpKind(250)
	v := features.ExtractPlan(test[0], est.Mode)[0]
	out := est.PredictBatch(
		[]plan.OpKind{bogus, test[0].Root.Kind},
		[]features.Vector{v, v}, nil)
	if want := est.PredictVector(bogus, &v); out[0] != want {
		t.Fatalf("unknown op: batch %v != sequential %v", out[0], want)
	}
	if want := est.PredictVector(test[0].Root.Kind, &v); out[1] != want {
		t.Fatalf("known op after unknown: batch %v != sequential %v", out[1], want)
	}
}

// TestPredictBatchLoadedEstimator runs the equivalence property on a
// save/load round-tripped estimator — the path served models take, with
// the compiled layout built at decode time.
func TestPredictBatchLoadedEstimator(t *testing.T) {
	est, test := trainedEstimator(t)
	loaded := reloadEstimator(t, est)
	totals := loaded.PredictPlans(test)
	for i, p := range test {
		if want := loaded.PredictPlan(p); math.Float64bits(totals[i]) != math.Float64bits(want) {
			t.Fatalf("loaded plan %d: batch %v != sequential %v", i, totals[i], want)
		}
	}
}

// TestPredictBatchConcurrent hammers PredictBatch from many goroutines
// (run with -race): the estimator contract promises unlimited
// concurrent reads.
func TestPredictBatchConcurrent(t *testing.T) {
	est, test := trainedEstimator(t)
	want := est.PredictPlans(test)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for r := 0; r < 20; r++ {
				got := est.PredictPlans(test)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						done <- errMismatch(i)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errMismatch int

func (e errMismatch) Error() string {
	return fmt.Sprintf("concurrent batch result diverged at plan %d", int(e))
}

// reloadEstimator round-trips an estimator through Save/LoadEstimator.
func reloadEstimator(t *testing.T, est *Estimator) *Estimator {
	t.Helper()
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// execPlans generates and executes a deterministic workload — shared by
// the batch and golden tests.
func execPlans(seed uint64, n int) []*plan.Plan {
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

// TestPredictBatchAllocatesPerCallOnly pins the grouping's scratch
// reuse: with out supplied, a call allocates nothing per group or per
// item — groups are small and many, so anything per group is per plan.
// The bound leaves room for one fresh scratch (7 buffers), which the
// race detector's sync.Pool hands out at random.
func TestPredictBatchAllocatesPerCallOnly(t *testing.T) {
	est, test := trainedEstimator(t)
	vecs, offs := features.ExtractPlans(test, est.Mode)
	kinds := make([]plan.OpKind, len(vecs))
	for i, p := range test {
		j := offs[i]
		p.Walk(func(n *plan.Node) {
			kinds[j] = n.Kind
			j++
		})
	}
	out := make([]float64, len(kinds))
	est.PredictBatch(kinds, vecs, out) // sizes the pooled scratch
	if n := testing.AllocsPerRun(20, func() { est.PredictBatch(kinds, vecs, out) }); n > 8 {
		t.Fatalf("PredictBatch over %d operators allocates %.0f times a call", len(kinds), n)
	}
}
