package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
)

func trainedEstimator(t *testing.T) (*Estimator, []*plan.Plan) {
	t.Helper()
	cfg := workload.Config{Seed: 61, N: 96, SFs: []float64{1, 2}, Z: 2, Corr: 0.85}
	qs := workload.GenTPCH(cfg)
	eng := engine.New(nil)
	var plans []*plan.Plan
	for _, q := range qs {
		eng.Run(q.Plan)
		plans = append(plans, q.Plan)
	}
	tcfg := DefaultConfig()
	tcfg.Mart.Iterations = 100
	est, err := Train(plans[:72], plan.CPUTime, NewScaleTable(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return est, plans[72:]
}

func TestSaveLoadRoundTrip(t *testing.T) {
	est, test := trainedEstimator(t)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Resource != est.Resource || loaded.Mode != est.Mode {
		t.Fatal("metadata changed in round trip")
	}
	if len(loaded.Ops) != len(est.Ops) {
		t.Fatalf("op count %d -> %d", len(est.Ops), len(loaded.Ops))
	}
	for _, p := range test {
		a := est.PredictPlan(p)
		b := loaded.PredictPlan(p)
		// The paper's compact encoding stores thresholds as 4-byte
		// floats (§7.3); quantization can reroute borderline tree paths,
		// so allow a few percent of drift at the plan level.
		if math.Abs(a-b) > 0.05*(math.Abs(a)+1) {
			t.Fatalf("round-trip prediction drift: %v vs %v", a, b)
		}
	}
}

func TestSaveLoadPreservesSelection(t *testing.T) {
	est, _ := trainedEstimator(t)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for op, om := range est.Ops {
		lom := loaded.Ops[op]
		if lom == nil {
			t.Fatalf("operator %s missing after load", op)
		}
		if len(lom.Candidates) != len(om.Candidates) {
			t.Fatalf("%s: candidate count %d -> %d", op, len(om.Candidates), len(lom.Candidates))
		}
		if lom.Default.Name() != om.Default.Name() {
			t.Fatalf("%s: default changed %s -> %s", op, om.Default.Name(), lom.Default.Name())
		}
		if lom.NSamples != om.NSamples {
			t.Fatalf("%s: NSamples changed", op)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadEstimator(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadEstimator(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := LoadEstimator(strings.NewReader(`{"version":1,"ops":[{"op":0,"default":5,"candidates":[]}]}`)); err == nil {
		t.Fatal("bad default index accepted")
	}
}

// TestLoadRejectsOutOfRangeMetadata: a JSON model file naming a
// feature that does not exist, or sizing the transformed row smaller
// than its trees read, fails to load — the slab loader's checks —
// instead of loading and panicking at its first prediction.
func TestLoadRejectsOutOfRangeMetadata(t *testing.T) {
	est, test := trainedEstimator(t)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	decode := func() *estimatorJSON {
		var in estimatorJSON
		if err := json.Unmarshal(saved, &in); err != nil {
			t.Fatal(err)
		}
		return &in
	}
	// The candidate to damage has a scaling function, a scale range and
	// trees that read at least one input.
	oi, ci, need := -1, -1, 0
	for i, oj := range decode().Ops {
		for j, cj := range oj.Candidates {
			n := est.Ops[plan.OpKind(oj.Op)].Candidates[j].compiled.InputsNeeded()
			if oi < 0 && len(cj.Scales) > 0 && len(cj.ScaleFeat) > 0 && n > 0 {
				oi, ci, need = i, j, n
			}
		}
	}
	if oi < 0 {
		t.Fatal("no candidate with scales, a scale range and inputs to damage")
	}
	load := func(in *estimatorJSON) (*Estimator, error) {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		return LoadEstimator(bytes.NewReader(b))
	}
	loaded, err := load(decode())
	if err != nil {
		t.Fatalf("the undamaged file: %v", err)
	}
	loaded.PredictPlan(test[0])

	for _, c := range []struct {
		name string
		mut  func(*combinedJSON)
	}{
		{"input feature", func(cj *combinedJSON) { cj.Inputs[0] = 999 }},
		{"negative input feature", func(cj *combinedJSON) { cj.Inputs[0] = -1 }},
		{"normalize_by feature", func(cj *combinedJSON) { cj.NormalizeBy[0] = 999 }},
		{"scale function feature", func(cj *combinedJSON) { cj.Scales[0].F1 = 999 }},
		{"scale-range feature", func(cj *combinedJSON) { cj.ScaleFeat[0] = 999 }},
		{"scale-range lengths", func(cj *combinedJSON) { cj.ScaleLow = nil }},
		{"fewer inputs than the trees read", func(cj *combinedJSON) {
			n := need - 1
			cj.Inputs, cj.NormalizeBy, cj.Low, cj.High = cj.Inputs[:n], cj.NormalizeBy[:n], cj.Low[:n], cj.High[:n]
		}},
	} {
		in := decode()
		c.mut(&in.Ops[oi].Candidates[ci])
		if _, err := load(in); err == nil {
			t.Errorf("%s: the damaged model file loaded", c.name)
		}
	}
}

func TestSavedSizeReasonable(t *testing.T) {
	est, _ := trainedEstimator(t)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// §7.3: the model set fits in a few megabytes. Base64 and JSON
	// overhead stay within that budget at test-sized training.
	if buf.Len() > 8<<20 {
		t.Fatalf("saved estimator is %d bytes", buf.Len())
	}
	if buf.Len() < 1000 {
		t.Fatalf("saved estimator suspiciously small: %d bytes", buf.Len())
	}
}
