package repro

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
)

func trainTestSplit(t *testing.T, n int) (train, test []*Query) {
	t.Helper()
	qs, err := GenerateWorkload(WorkloadOptions{Schema: "tpch", N: n, Seed: 71,
		ScaleFactors: []float64{1, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	Execute(qs)
	cut := n * 3 / 4
	return qs[:cut], qs[cut:]
}

func quickOpts() TrainOptions {
	return TrainOptions{Resource: CPUTime, BoostingIterations: 100}
}

func TestGenerateWorkloadSchemas(t *testing.T) {
	for _, schema := range []string{"tpch", "tpcds", "real1", "real2"} {
		qs, err := GenerateWorkload(WorkloadOptions{Schema: schema, N: 10, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", schema, err)
		}
		if len(qs) != 10 {
			t.Fatalf("%s: %d queries", schema, len(qs))
		}
	}
	if _, err := GenerateWorkload(WorkloadOptions{Schema: "oracle", N: 5}); err == nil {
		t.Fatal("unknown schema accepted")
	}
	if _, err := GenerateWorkload(WorkloadOptions{N: 0}); err == nil {
		t.Fatal("zero-size workload accepted")
	}
}

func TestExecuteFillsActuals(t *testing.T) {
	qs, _ := GenerateWorkload(WorkloadOptions{N: 6, Seed: 3})
	totals := Execute(qs)
	for i, r := range totals {
		if r.CPU <= 0 {
			t.Fatalf("query %d: CPU %v", i, r.CPU)
		}
		if got := qs[i].Plan.TotalActual(); got != r {
			t.Fatalf("query %d: returned totals %+v != plan totals %+v", i, r, got)
		}
	}
}

func TestTrainAndEstimate(t *testing.T) {
	train, test := trainTestSplit(t, 96)
	est, err := Train(train, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if est.Resource() != CPUTime {
		t.Fatal("wrong resource")
	}
	good := 0
	for _, q := range test {
		pred := est.EstimateQuery(q)
		truth := q.Plan.TotalActual().CPU
		r := pred / truth
		if r > 1 {
			r = 1 / r
		}
		if r > 0.5 {
			good++
		}
	}
	if good < len(test)*6/10 {
		t.Fatalf("only %d/%d estimates within 2x", good, len(test))
	}
}

func TestTrainRequiresExecution(t *testing.T) {
	qs, _ := GenerateWorkload(WorkloadOptions{N: 4, Seed: 5})
	if _, err := Train(qs, quickOpts()); err == nil {
		t.Fatal("training on unexecuted queries accepted")
	}
	if _, err := Train(nil, quickOpts()); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestEstimatePipelinesConsistent(t *testing.T) {
	train, test := trainTestSplit(t, 64)
	est, err := Train(train, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range test[:4] {
		per := est.EstimatePipelines(q.Plan)
		var sum float64
		for _, v := range per {
			sum += v
		}
		tot := est.EstimatePlan(q.Plan)
		if math.Abs(sum-tot) > 1e-6*(tot+1) {
			t.Fatalf("pipeline estimates sum %v != plan estimate %v", sum, tot)
		}
		if len(per) != len(q.Plan.Pipelines()) {
			t.Fatal("pipeline count mismatch")
		}
	}
}

func TestEstimateOperator(t *testing.T) {
	train, test := trainTestSplit(t, 64)
	est, err := Train(train, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	p := test[0].Plan
	var sum float64
	nodes := p.Nodes()
	parents := map[*Node]*Node{}
	p.Walk(func(n *Node) {
		for _, c := range n.Children {
			parents[c] = n
		}
	})
	for _, n := range nodes {
		sum += est.EstimateOperator(n, parents[n])
	}
	if math.Abs(sum-est.EstimatePlan(p)) > 1e-6*(sum+1) {
		t.Fatalf("operator estimates sum %v != plan estimate %v", sum, est.EstimatePlan(p))
	}
}

func TestSaveLoadFacade(t *testing.T) {
	train, test := trainTestSplit(t, 64)
	est, err := Train(train, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := est.EstimatePlan(test[0].Plan)
	b := loaded.EstimatePlan(test[0].Plan)
	if math.Abs(a-b) > 0.05*(a+1) {
		t.Fatalf("round trip drift: %v vs %v", a, b)
	}
}

func TestSaveLoadFile(t *testing.T) {
	train, _ := trainTestSplit(t, 48)
	est, err := Train(train, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := est.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestIOEstimator(t *testing.T) {
	train, test := trainTestSplit(t, 80)
	opts := quickOpts()
	opts.Resource = LogicalIO
	est, err := Train(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	good := 0
	for _, q := range test {
		pred := est.EstimateQuery(q)
		truth := q.Plan.TotalActual().IO
		if truth == 0 {
			continue
		}
		r := pred / truth
		if r > 1 {
			r = 1 / r
		}
		if r > 0.33 {
			good++
		}
	}
	if good < len(test)/2 {
		t.Fatalf("only %d/%d I/O estimates within 3x", good, len(test))
	}
}

func TestEstimatedFeaturesMode(t *testing.T) {
	train, test := trainTestSplit(t, 64)
	opts := quickOpts()
	opts.UseEstimatedFeatures = true
	est, err := Train(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pred := est.EstimateQuery(test[0]); pred <= 0 {
		t.Fatalf("estimated-features prediction %v", pred)
	}
}

func TestDisableScalingOption(t *testing.T) {
	train, _ := trainTestSplit(t, 48)
	opts := quickOpts()
	opts.DisableScaling = true
	est, err := Train(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.EstimatePlan(train[0].Plan) <= 0 {
		t.Fatal("MART-only estimator returned non-positive estimate")
	}
}

// TestTrainSetFacade: the one-pass multi-resource training entry point
// must return estimators in request order that are byte-identical —
// stamped baselines included — to separate Train calls with the same
// options, at any worker count.
func TestTrainSetFacade(t *testing.T) {
	train, _ := trainTestSplit(t, 60)
	opts := quickOpts()
	opts.Workers = 7
	ests, err := TrainSet(train, opts, CPUTime, LogicalIO)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 2 || ests[0].Resource() != CPUTime || ests[1].Resource() != LogicalIO {
		t.Fatalf("TrainSet returned wrong resources: %v", ests)
	}
	opts.Workers = 1
	for i, r := range []Resource{CPUTime, LogicalIO} {
		opts.Resource = r
		solo, err := Train(train, opts)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := ests[i].Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := solo.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%v: TrainSet(workers=7) model differs from sequential Train", r)
		}
	}

	if _, err := TrainSet(train, opts); err == nil {
		t.Fatal("TrainSet without resources accepted")
	}
	if _, err := TrainSet(nil, opts, CPUTime); err == nil {
		t.Fatal("TrainSet on empty queries accepted")
	}
}

// TestMultiResourceAndStoreFacade exercises the public multi-resource
// and model-store surface end to end: train both resources, bundle
// them, persist a snapshot, load it back, and check the loaded set
// predicts bit-for-bit what the trained one does.
func TestMultiResourceAndStoreFacade(t *testing.T) {
	train, test := trainTestSplit(t, 48)
	cpuEst, err := Train(train, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	ioOpts := quickOpts()
	ioOpts.Resource = LogicalIO
	ioEst, err := Train(train, ioOpts)
	if err != nil {
		t.Fatal(err)
	}

	set, err := NewEstimatorSet(cpuEst, ioEst)
	if err != nil {
		t.Fatal(err)
	}
	both := set.EstimateQueriesAll(test)
	for i, q := range test {
		if math.Float64bits(both[i].CPU) != math.Float64bits(cpuEst.EstimateQuery(q)) ||
			math.Float64bits(both[i].IO) != math.Float64bits(ioEst.EstimateQuery(q)) {
			t.Fatalf("query %d: one-pass %+v diverges from members", i, both[i])
		}
	}

	st, err := OpenModelStore(t.TempDir(), ModelStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	man, err := SaveSnapshot(st, "tpch", "restrain", cpuEst, ioEst)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Models) != 2 {
		t.Fatalf("snapshot holds %d models", len(man.Models))
	}
	loadedSet, loadedMan, err := LoadLatestEstimators(st, "tpch")
	if err != nil {
		t.Fatal(err)
	}
	if loadedMan.Version != man.Version {
		t.Fatalf("loaded snapshot v%d, want v%d", loadedMan.Version, man.Version)
	}

	for i, q := range test {
		got := loadedSet.EstimatePlanAll(q.Plan)
		if math.Float64bits(got.CPU) != math.Float64bits(both[i].CPU) ||
			math.Float64bits(got.IO) != math.Float64bits(both[i].IO) {
			t.Fatalf("query %d: loaded set %+v diverges from trained %+v", i, got, both[i])
		}
	}
}
