package core

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/mart"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Mart.Iterations = 120
	return cfg
}

// filterSamples builds synthetic Filter-operator samples with CPU
// linear in CIN1 and a width-dependent per-tuple factor.
func filterSamples(n int, seed uint64, minRows, maxRows float64) []Sample {
	rng := xrand.New(seed)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		rows := math.Exp(rng.Range(math.Log(minRows), math.Log(maxRows)))
		width := rng.Range(20, 200)
		sel := rng.Range(0.05, 0.9)
		var v features.Vector
		v.Set(features.CIn1, rows)
		v.Set(features.SInAvg1, width)
		v.Set(features.SInTot1, rows*width)
		v.Set(features.COut, rows*sel)
		v.Set(features.SOutAvg, width)
		v.Set(features.SOutTot, rows*sel*width)
		y := rows * (0.0001 + 0.000001*width)
		out = append(out, Sample{X: v, Y: y})
	}
	return out
}

func TestCombinedModelNormalization(t *testing.T) {
	samples := filterSamples(200, 1, 1e3, 1e5)
	m, err := TrainCombined(plan.Filter, plan.CPUTime,
		[]ScaleFn{{Kind: ScaleLinear, F1: features.CIn1}}, samples, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// CIN1 must be removed from inputs; SINTOT1 must be normalized.
	for i, id := range m.Inputs {
		if id == features.CIn1 {
			t.Fatal("scaled-by feature still among inputs")
		}
		if id == features.SInTot1 && m.normalizeBy[i] != features.CIn1 {
			t.Fatal("SINTOT1 not normalized by CIN1")
		}
		if id == features.SInAvg1 && m.normalizeBy[i] >= 0 {
			t.Fatal("SINAVG1 must not be normalized (paper example)")
		}
	}
	var v features.Vector
	v.Set(features.CIn1, 1000)
	v.Set(features.SInTot1, 50_000)
	x := m.transform(&v)
	for i, id := range m.Inputs {
		if id == features.SInTot1 && math.Abs(x[i]-50) > 1e-9 {
			t.Fatalf("normalized SINTOT1 = %v, want 50", x[i])
		}
	}
}

func TestScaledModelExtrapolates(t *testing.T) {
	// Figure 3 vs Figure 6: train on small inputs, test 20x beyond.
	train := filterSamples(400, 2, 1e3, 1e5)
	test := filterSamples(60, 3, 1e6, 2e6)

	plain, err := TrainCombined(plan.Filter, plan.CPUTime, nil, train, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := TrainCombined(plan.Filter, plan.CPUTime,
		[]ScaleFn{{Kind: ScaleLinear, F1: features.CIn1}}, train, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var plainErr, scaledErr float64
	for i := range test {
		truth := test[i].Y
		plainErr += math.Abs(plain.PredictVector(&test[i].X)-truth) / truth
		scaledErr += math.Abs(scaled.PredictVector(&test[i].X)-truth) / truth
	}
	plainErr /= float64(len(test))
	scaledErr /= float64(len(test))
	// The plain MART saturates at the training maximum (~10x under),
	// while the scaled model follows the linear growth.
	if plainErr < 0.5 {
		t.Fatalf("plain MART extrapolated too well (%v) — test setup broken", plainErr)
	}
	if scaledErr > 0.25 {
		t.Fatalf("scaled model extrapolation error %v too high", scaledErr)
	}
	if scaledErr > plainErr/3 {
		t.Fatalf("scaling should dominate: scaled %v vs plain %v", scaledErr, plainErr)
	}
}

func TestOutRatio(t *testing.T) {
	samples := filterSamples(200, 4, 1e3, 1e5)
	m, err := TrainCombined(plan.Filter, plan.CPUTime, nil, samples, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// In-range vector.
	in := samples[10].X
	if got := m.OutRatio(&in); got != 0 {
		t.Fatalf("in-range out_ratio = %v", got)
	}
	// Out-of-range CIN1.
	far := filterSamples(1, 5, 1e7, 1e7)[0].X
	if got := m.OutRatio(&far); got <= 0 {
		t.Fatalf("out-of-range out_ratio = %v", got)
	}
	// The farther outside, the larger the ratio.
	farther := filterSamples(1, 6, 1e8, 1e8)[0].X
	if m.OutRatio(&farther) <= m.OutRatio(&far) {
		t.Fatal("out_ratio not monotone in distance")
	}
}

func TestOperatorModelsSelection(t *testing.T) {
	samples := filterSamples(300, 7, 1e3, 1e5)
	om, err := trainOperator(plan.Filter, plan.CPUTime, samples, NewScaleTable(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(om.Candidates) < 3 {
		t.Fatalf("only %d candidates trained", len(om.Candidates))
	}
	// In range: the default is selected.
	in := samples[0].X
	if got := om.Select(&in); got != om.Default {
		t.Fatalf("in-range selection = %s, want default %s", got.Name(), om.Default.Name())
	}
	// CIN1 far out of range: a model scaling by CIN1 is selected.
	far := filterSamples(1, 8, 1e7, 1e7)[0].X
	sel := om.Select(&far)
	scalesByCIn1 := false
	for _, sc := range sel.Scales {
		for _, f := range sc.ScaledBy() {
			if f == features.CIn1 {
				scalesByCIn1 = true
			}
		}
	}
	if !scalesByCIn1 {
		t.Fatalf("out-of-range selection %s does not scale by CIN1", sel.Name())
	}
	// Prediction extrapolates sensibly (within 2x of the truth).
	truth := 1e7 * (0.0001 + 0.000001*far.Get(features.SInAvg1))
	got := om.PredictVector(&far)
	if got < truth/2 || got > truth*2 {
		t.Fatalf("extrapolated prediction %v, truth %v", got, truth)
	}
}

func TestCandidateScaleSets(t *testing.T) {
	tbl := NewScaleTable()
	sets := candidateScaleSets(plan.NestedLoopJoin, plan.CPUTime, tbl)
	// Must contain: default, singles, and the outer×log(inner) pair.
	hasDefault, hasXLogY := false, false
	for _, s := range sets {
		if len(s) == 0 {
			hasDefault = true
		}
		for _, fn := range s {
			if fn.Kind == ScaleXLogY {
				hasXLogY = true
			}
		}
	}
	if !hasDefault || !hasXLogY {
		t.Fatalf("NL candidate sets missing default (%v) or xlogy (%v)", hasDefault, hasXLogY)
	}
	// I/O candidates must exclude CPU-only scaling features.
	ioSets := candidateScaleSets(plan.Sort, plan.LogicalIO, tbl)
	for _, s := range ioSets {
		for _, fn := range s {
			if fn.F1 == features.MinComp {
				t.Fatal("MINCOMP used for I/O scaling")
			}
		}
	}
}

func TestEstimatorEndToEnd(t *testing.T) {
	cfg := workload.Config{Seed: 41, N: 160, SFs: []float64{1, 2}, Z: 2, Corr: 0.85}
	qs := workload.GenTPCH(cfg)
	eng := engine.New(nil)
	var plans []*plan.Plan
	for _, q := range qs {
		eng.Run(q.Plan)
		plans = append(plans, q.Plan)
	}
	train, test := plans[:120], plans[120:]

	tcfg := fastConfig()
	est, err := Train(train, plan.CPUTime, NewScaleTable(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if est.NumModels() < len(est.Ops) {
		t.Fatal("fewer models than operators")
	}
	good := 0
	for _, p := range test {
		pred := est.PredictPlan(p)
		truth := p.TotalActual().CPU
		r := pred / truth
		if r > 1 {
			r = 1 / r
		}
		if r > 0.5 {
			good++
		}
	}
	if good < len(test)*6/10 {
		t.Fatalf("only %d/%d test queries within 2x", good, len(test))
	}
}

func TestEstimatorPipelinesSumToPlan(t *testing.T) {
	cfg := workload.Config{Seed: 43, N: 40, SFs: []float64{1}, Z: 2, Corr: 0.85}
	qs := workload.GenTPCH(cfg)
	eng := engine.New(nil)
	var plans []*plan.Plan
	for _, q := range qs {
		eng.Run(q.Plan)
		plans = append(plans, q.Plan)
	}
	est, err := Train(plans, plan.CPUTime, nil, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans[:10] {
		pipes := est.PredictPipelines(p)
		var sum float64
		for _, v := range pipes {
			sum += v
		}
		tot := est.PredictPlan(p)
		if math.Abs(sum-tot) > 1e-6*(math.Abs(tot)+1) {
			t.Fatalf("pipeline sum %v != plan estimate %v", sum, tot)
		}
		if len(pipes) != len(p.Pipelines()) {
			t.Fatal("pipeline estimate count mismatch")
		}
	}
}

func TestDisableScalingMatchesPlainMart(t *testing.T) {
	samples := filterSamples(150, 9, 1e3, 1e5)
	cfg := fastConfig()
	cfg.DisableScaling = true
	// Train through TrainSet's job list with a single synthetic operator.
	om, err := trainOperator(plan.Filter, plan.CPUTime, samples, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(om.Candidates) != 1 || len(om.Default.Scales) != 0 {
		t.Fatal("DisableScaling still trained scaled candidates")
	}
	// Direct plain MART on the same transformed data agrees.
	plain, err := TrainCombined(plan.Filter, plan.CPUTime, nil, samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := samples[3].X
	if om.Default.PredictVector(&v) != plain.PredictVector(&v) {
		t.Fatal("unscaled estimator differs from plain MART")
	}
	_ = mart.DefaultConfig() // keep import meaningful
}

func TestDisableNormalizationAblation(t *testing.T) {
	samples := filterSamples(150, 10, 1e3, 1e5)
	cfg := fastConfig()
	cfg.DisableNormalization = true
	m, err := TrainCombined(plan.Filter, plan.CPUTime,
		[]ScaleFn{{Kind: ScaleLinear, F1: features.CIn1}}, samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Inputs {
		if m.normalizeBy[i] >= 0 {
			t.Fatal("normalization active despite ablation flag")
		}
	}
}
