package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func TestScaleFnMonotoneInF1(t *testing.T) {
	rng := xrand.New(91)
	kinds := []ScaleKind{ScaleLinear, ScaleNLogN, ScaleLog, ScaleSqrt, ScaleQuadratic}
	f := func(a, b float64) bool {
		lo := math.Abs(math.Mod(a, 1e6)) + 1
		hi := lo + math.Abs(math.Mod(b, 1e6)) + 1
		k := kinds[rng.Intn(len(kinds))]
		fn := ScaleFn{Kind: k, F1: features.CIn1}
		var v1, v2 features.Vector
		v1.Set(features.CIn1, lo)
		v2.Set(features.CIn1, hi)
		return fn.Eval(&v2) >= fn.Eval(&v1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleFnPositive(t *testing.T) {
	f := func(a, b float64) bool {
		var v features.Vector
		v.Set(features.CIn1, a)
		v.Set(features.CIn2, b)
		for _, k := range append(SingleKinds(), PairKinds()...) {
			fn := ScaleFn{Kind: k, F1: features.CIn1, F2: features.CIn2}
			if fn.Eval(&v) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// operatorModelsFixture trains one OperatorModels over realistic
// workload-derived samples.
func operatorModelsFixture(t *testing.T) (*OperatorModels, []Sample) {
	t.Helper()
	cfg := workload.Config{Seed: 81, N: 120, SFs: []float64{1, 2}, Z: 2, Corr: 0.85}
	qs := workload.GenTPCH(cfg)
	eng := engine.New(nil)
	var plans []*plan.Plan
	for _, q := range qs {
		eng.Run(q.Plan)
		plans = append(plans, q.Plan)
	}
	samples := CollectSamples(plans, plan.CPUTime, features.Exact)[plan.HashJoin]
	if len(samples) < 20 {
		t.Fatalf("only %d hash join samples", len(samples))
	}
	tcfg := DefaultConfig()
	tcfg.Mart.Iterations = 80
	om, err := trainOperator(plan.HashJoin, plan.CPUTime, samples, NewScaleTable(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return om, samples
}

func TestSelectAlwaysReturnsCandidate(t *testing.T) {
	om, samples := operatorModelsFixture(t)
	inSet := func(m *CombinedModel) bool {
		for _, c := range om.Candidates {
			if c == m {
				return true
			}
		}
		return false
	}
	rng := xrand.New(17)
	// Training vectors, perturbed vectors, and extreme vectors.
	for i := 0; i < 200; i++ {
		v := samples[rng.Intn(len(samples))].X
		switch i % 3 {
		case 1:
			v.Set(features.CIn2, v.Get(features.CIn2)*rng.Range(0, 1e4))
		case 2:
			v.Set(features.CIn1, 0)
			v.Set(features.COut, 1e12)
		}
		sel := om.Select(&v)
		if sel == nil || !inSet(sel) {
			t.Fatal("Select returned a non-candidate")
		}
		if p := sel.PredictVector(&v); p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prediction %v for perturbed vector", p)
		}
	}
}

func TestTrainingSamplesSelectDefault(t *testing.T) {
	om, samples := operatorModelsFixture(t)
	for i := range samples {
		if got := om.Select(&samples[i].X); got != om.Default {
			t.Fatalf("training sample %d selected %s instead of the default %s",
				i, got.Name(), om.Default.Name())
		}
	}
}

func TestUnscaledCandidateInRangeOnTraining(t *testing.T) {
	om, samples := operatorModelsFixture(t)
	// The first candidate is always the unscaled one; every training
	// vector must be within its recorded ranges.
	unscaled := om.Candidates[0]
	if len(unscaled.Scales) != 0 {
		t.Fatal("first candidate is not the unscaled model")
	}
	for i := range samples {
		if r := unscaled.OutRatio(&samples[i].X); r != 0 {
			t.Fatalf("training sample %d has out_ratio %v on the unscaled model", i, r)
		}
	}
}

func TestOutRatioGrowsWithDistance(t *testing.T) {
	om, samples := operatorModelsFixture(t)
	unscaled := om.Candidates[0]
	base := samples[0].X
	prev := -1.0
	for _, mult := range []float64{1e2, 1e4, 1e6} {
		v := base
		v.Set(features.CIn2, base.Get(features.CIn2)*mult)
		v.Set(features.SInTot2, base.Get(features.SInTot2)*mult)
		r := unscaled.OutRatio(&v)
		if r <= prev {
			t.Fatalf("out_ratio not growing: %v after %v at mult %g", r, prev, mult)
		}
		prev = r
	}
}

func TestDefaultHasMinTrainErr(t *testing.T) {
	om, samples := operatorModelsFixture(t)
	for _, c := range om.Candidates {
		// TrainErr comes from the fit's own predictions; it must be the
		// bits a PredictVector pass over the training samples yields.
		var errSum float64
		for i := range samples {
			errSum += relErr(c.PredictVector(&samples[i].X), samples[i].Y)
		}
		if want := errSum / float64(len(samples)); math.Float64bits(c.TrainErr) != math.Float64bits(want) {
			t.Errorf("candidate %s: TrainErr %v, PredictVector over the samples gives %v", c.Name(), c.TrainErr, want)
		}
		if c.TrainErr < om.Default.TrainErr-1e-12 {
			t.Fatalf("candidate %s has lower training error (%v) than the default %s (%v)",
				c.Name(), c.TrainErr, om.Default.Name(), om.Default.TrainErr)
		}
	}
}

func TestWinsorize(t *testing.T) {
	ys := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 1e9}
	winsorize(ys, 0.9)
	for _, v := range ys {
		if v > 9 {
			t.Fatalf("winsorize left outlier %v", v)
		}
	}
	// Short slices are untouched.
	short := []float64{1, 1e9}
	winsorize(short, 0.9)
	if short[1] != 1e9 {
		t.Fatal("winsorize modified a short slice")
	}
}

func TestCandidateNamesDistinct(t *testing.T) {
	om, _ := operatorModelsFixture(t)
	names := om.CandidateNames()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate candidate %s", n)
		}
		seen[n] = true
	}
	if len(names) != len(om.Candidates) {
		t.Fatal("CandidateNames count mismatch")
	}
}
