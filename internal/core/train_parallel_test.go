package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
)

// saveBytes serializes an estimator — the full model set, MART
// ensembles in their binary encoding included — for byte-level
// comparison. Save walks operators in declaration order, so equal
// estimators always serialize to equal bytes.
func saveBytes(t *testing.T, est *Estimator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainBitIdenticalAcrossWorkers is the tentpole determinism
// guarantee at the estimator layer: the complete serialized model set —
// every operator, every candidate, every encoded MART ensemble, the
// selected defaults and the fallback mean — must be byte-identical at
// worker counts 1, 2, 7 and GOMAXPROCS.
func TestTrainBitIdenticalAcrossWorkers(t *testing.T) {
	plans := execPlans(29, 64)
	cfg := DefaultConfig()
	cfg.Mart.Iterations = 40

	train := func(workers int) []byte {
		cfg.Workers = workers
		est, err := Train(plans, plan.CPUTime, NewScaleTable(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return saveBytes(t, est)
	}

	want := train(1)
	for _, w := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		if got := train(w); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: serialized estimator differs from sequential (%d vs %d bytes)",
				w, len(got), len(want))
		}
	}
}

// TestTrainSetMatchesIndividualTrain: the multi-resource one-pool pass
// must produce, per resource, byte-identical models to separate
// sequential Train calls — the job flattening changes scheduling, not
// results.
func TestTrainSetMatchesIndividualTrain(t *testing.T) {
	plans := execPlans(31, 64)
	cfg := DefaultConfig()
	cfg.Mart.Iterations = 40
	resources := []plan.ResourceKind{plan.CPUTime, plan.LogicalIO}

	cfg.Workers = 7
	set, err := TrainSet(plans, resources, NewScaleTable(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	for _, r := range resources {
		solo, err := Train(plans, r, NewScaleTable(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, set[r]), saveBytes(t, solo)) {
			t.Fatalf("%s: TrainSet model differs from sequential Train", r)
		}
	}
}

// TestNilScaleTableIsSelection pins what a nil table means: the §6.2
// selection on the default engine, mirrored onto IndexScan, which is
// not the all-linear table.
func TestNilScaleTableIsSelection(t *testing.T) {
	plans := execPlans(35, 48)
	cfg := DefaultConfig()
	cfg.Mart.Iterations = 20
	resources := []plan.ResourceKind{plan.CPUTime, plan.LogicalIO}
	selected := SelectScaleFunctions(engine.New(nil), workload.NewBuilder(workload.DBFor("tpch", 2, 1), 1))
	selected.MirrorScanKinds()

	train := func(tbl *ScaleTable) map[plan.ResourceKind]*Estimator {
		set, err := TrainSet(plans, resources, tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	implicit, explicit, linear := train(nil), train(selected), train(NewScaleTable())
	for _, r := range resources {
		if !bytes.Equal(saveBytes(t, implicit[r]), saveBytes(t, explicit[r])) {
			t.Errorf("%s: nil table trains a different model than the selected table", r)
		}
	}
	if bytes.Equal(saveBytes(t, implicit[plan.CPUTime]), saveBytes(t, linear[plan.CPUTime])) {
		t.Error("nil table trains the all-linear CPU model")
	}
}

// TestTrainSetRejectsBadInputs covers the validation surface of the
// multi-resource entry point.
func TestTrainSetRejectsBadInputs(t *testing.T) {
	plans := execPlans(33, 4)
	cfg := DefaultConfig()
	cfg.Mart.Iterations = 5
	if _, err := TrainSet(nil, []plan.ResourceKind{plan.CPUTime}, nil, cfg); err == nil {
		t.Fatal("empty plans accepted")
	}
	if _, err := TrainSet(plans, nil, nil, cfg); err == nil {
		t.Fatal("empty resource list accepted")
	}
	if _, err := TrainSet(plans, []plan.ResourceKind{plan.CPUTime, plan.CPUTime}, nil, cfg); err == nil {
		t.Fatal("duplicate resource accepted")
	}
	if _, err := TrainSet(plans, []plan.ResourceKind{plan.ResourceKind(99)}, nil, cfg); err == nil {
		t.Fatal("unknown resource accepted")
	}
}

// TestTrainOperatorBitIdenticalAcrossWorkers exercises the candidate
// fan-out of a single operator, where spare workers flow down into the
// tree-level MART parallelism (jobs < workers).
func TestTrainOperatorBitIdenticalAcrossWorkers(t *testing.T) {
	plans := execPlans(37, 48)
	byOp := CollectSamples(plans, plan.CPUTime, DefaultConfig().Mode)
	samples := byOp[plan.TableScan]
	if len(samples) == 0 {
		t.Fatal("no table-scan samples in workload")
	}
	cfg := DefaultConfig()
	cfg.Mart.Iterations = 30

	var want *OperatorModels
	for _, w := range []int{1, 2, 7} {
		cfg.Workers = w
		om, err := trainOperator(plan.TableScan, plan.CPUTime, samples, NewScaleTable(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = om
			continue
		}
		if len(om.Candidates) != len(want.Candidates) {
			t.Fatalf("workers=%d: %d candidates, want %d", w, len(om.Candidates), len(want.Candidates))
		}
		for i := range om.Candidates {
			if !bytes.Equal(om.Candidates[i].blob, want.Candidates[i].blob) {
				t.Fatalf("workers=%d: candidate %d MART bytes differ", w, i)
			}
			if om.Candidates[i].TrainErr != want.Candidates[i].TrainErr {
				t.Fatalf("workers=%d: candidate %d TrainErr differs", w, i)
			}
		}
		if om.defaultIndex() != want.defaultIndex() {
			t.Fatalf("workers=%d: default candidate %d, want %d", w, om.defaultIndex(), want.defaultIndex())
		}
	}
}

// defaultIndex locates the selected default among the candidates.
func (om *OperatorModels) defaultIndex() int {
	for i, c := range om.Candidates {
		if c == om.Default {
			return i
		}
	}
	return -1
}
