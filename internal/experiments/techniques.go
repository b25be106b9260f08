// Package experiments implements the paper's evaluation (§7): it
// generates and executes the workloads, trains every technique, and
// regenerates each table and figure of the paper — same rows, same
// error metrics, over the simulated substrate.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/kcca"
	"repro/internal/linreg"
	"repro/internal/mart"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/regtree"
	"repro/internal/svm"
)

// Technique names, matching the paper's table rows.
const (
	TechOPT     = "OPT"
	TechAkdere  = "[8]"
	TechLinear  = "LINEAR"
	TechMART    = "MART"
	TechSVM     = "SVM"
	TechRegTree = "REGTREE"
	TechScaling = "SCALING"
	TechKCCA    = "KCCA"
)

// PlanEstimator predicts a plan's resource usage.
type PlanEstimator interface {
	PredictPlan(p *plan.Plan) float64
}

// predictor is a per-operator point regressor.
type predictor interface {
	Predict(x []float64) float64
}

// perOpEstimator wraps any per-operator regressor family into a plan
// estimator: one model per operator kind over the Table 1+2 features,
// plan estimate = sum of operator estimates.
type perOpEstimator struct {
	resource plan.ResourceKind
	mode     features.Mode
	models   map[plan.OpKind]predictor
	inputs   map[plan.OpKind][]features.ID
	fallback float64
}

// project maps a feature vector onto the operator's applicable columns.
func project(v *features.Vector, ids []features.ID) []float64 {
	x := make([]float64, len(ids))
	for i, id := range ids {
		x[i] = v.Get(id)
	}
	return x
}

func trainPerOp(plans []*plan.Plan, r plan.ResourceKind, mode features.Mode,
	train func(x [][]float64, y []float64) (predictor, error)) (*perOpEstimator, error) {

	e := &perOpEstimator{
		resource: r, mode: mode,
		models: map[plan.OpKind]predictor{},
		inputs: map[plan.OpKind][]features.ID{},
	}
	byOp := core.CollectSamples(plans, r, mode)
	var sum float64
	var n int
	for op, samples := range byOp {
		ids := features.ForOperator(op)
		xs := make([][]float64, len(samples))
		ys := make([]float64, len(samples))
		for i := range samples {
			xs[i] = project(&samples[i].X, ids)
			ys[i] = samples[i].Y
			sum += ys[i]
			n++
		}
		m, err := train(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", op, err)
		}
		e.models[op] = m
		e.inputs[op] = ids
	}
	if n > 0 {
		e.fallback = sum / float64(n)
	}
	return e, nil
}

// PredictPlan implements PlanEstimator.
func (e *perOpEstimator) PredictPlan(p *plan.Plan) float64 {
	vecs := features.ExtractPlan(p, e.mode)
	var total float64
	for i, nd := range p.Nodes() {
		m, ok := e.models[nd.Kind]
		if !ok {
			total += e.fallback
			continue
		}
		pr := m.Predict(project(&vecs[i], e.inputs[nd.Kind]))
		if pr > 0 {
			total += pr
		}
	}
	return total
}

// akdereEstimator is the operator-level model of Akdere et al. [8]:
// per-operator linear regression (with greedy feature selection) that
// propagates *cumulative* resource estimates bottom-up — each operator's
// model sees, in addition to the Table 1+2 features, the estimated
// cumulative resource of its children.
type akdereEstimator struct {
	resource plan.ResourceKind
	mode     features.Mode
	models   map[plan.OpKind]*linreg.Model
	inputs   map[plan.OpKind][]features.ID
	fallback float64
}

func trainAkdere(plans []*plan.Plan, r plan.ResourceKind, mode features.Mode) (*akdereEstimator, error) {
	e := &akdereEstimator{
		resource: r, mode: mode,
		models: map[plan.OpKind]*linreg.Model{},
		inputs: map[plan.OpKind][]features.ID{},
	}
	// Gather training rows: features + true cumulative child resources
	// (training uses measured values; prediction substitutes estimates,
	// exactly the propagation scheme of [8]).
	type row struct {
		x []float64
		y float64
	}
	byOp := map[plan.OpKind][]row{}
	var sum float64
	var n int
	for _, p := range plans {
		vecs := features.ExtractPlan(p, mode)
		nodes := p.Nodes()
		cum := map[*plan.Node]float64{}
		// Compute cumulative actuals bottom-up (reverse preorder works:
		// children appear after parents in preorder, so iterate last to
		// first).
		for i := len(nodes) - 1; i >= 0; i-- {
			nd := nodes[i]
			c := nd.Actual.Get(r)
			for _, ch := range nd.Children {
				c += cum[ch]
			}
			cum[nd] = c
		}
		for i, nd := range nodes {
			ids := features.ForOperator(nd.Kind)
			x := project(&vecs[i], ids)
			var childCum float64
			for _, ch := range nd.Children {
				childCum += cum[ch]
			}
			x = append(x, childCum)
			byOp[nd.Kind] = append(byOp[nd.Kind], row{x: x, y: cum[nd]})
			sum += nd.Actual.Get(r)
			n++
		}
	}
	for op, rows := range byOp {
		xs := make([][]float64, len(rows))
		ys := make([]float64, len(rows))
		for i, rw := range rows {
			xs[i], ys[i] = rw.x, rw.y
		}
		m, err := linreg.Train(xs, ys, linreg.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("experiments: akdere %s: %w", op, err)
		}
		e.models[op] = m
		e.inputs[op] = features.ForOperator(op)
	}
	if n > 0 {
		e.fallback = sum / float64(n)
	}
	return e, nil
}

// PredictPlan implements PlanEstimator: bottom-up propagation of
// cumulative estimates; the root's cumulative estimate is the query
// estimate.
func (e *akdereEstimator) PredictPlan(p *plan.Plan) float64 {
	vecs := features.ExtractPlan(p, e.mode)
	nodes := p.Nodes()
	vecOf := map[*plan.Node]*features.Vector{}
	for i, nd := range nodes {
		vecOf[nd] = &vecs[i]
	}
	var rec func(nd *plan.Node) float64
	rec = func(nd *plan.Node) float64 {
		var childCum float64
		for _, ch := range nd.Children {
			childCum += rec(ch)
		}
		m, ok := e.models[nd.Kind]
		if !ok {
			return childCum + e.fallback
		}
		x := append(project(vecOf[nd], e.inputs[nd.Kind]), childCum)
		est := m.Predict(x)
		if est < childCum {
			// Cumulative resource can never shrink below the children's.
			est = childCum
		}
		return est
	}
	return rec(p.Root)
}

// optEstimator wraps the fitted optimizer-cost baseline.
type optEstimator struct{ adj *optimizer.Adjusted }

// PredictPlan implements PlanEstimator.
func (e *optEstimator) PredictPlan(p *plan.Plan) float64 { return e.adj.PredictPlan(p) }

// kccaEstimator wraps the template-level nearest-neighbour baseline.
type kccaEstimator struct{ m *kcca.Model }

// PredictPlan implements PlanEstimator.
func (e *kccaEstimator) PredictPlan(p *plan.Plan) float64 {
	return e.m.Predict(kcca.PlanFeatures(p))
}

// TechniqueSet trains the requested techniques on the training plans.
type TechniqueSet struct {
	Resource plan.ResourceKind
	Mode     features.Mode
	Models   map[string]PlanEstimator
}

// TrainConfig bundles the per-technique knobs.
type TrainConfig struct {
	Resource plan.ResourceKind
	Mode     features.Mode
	// MartIterations configures both MART and SCALING (0 = default 1000).
	MartIterations int
	// SVMKernel selects the kernel, per the paper's per-section best
	// (PolyKernel for CPU, RBFKernel for I/O). nil = poly.
	SVMKernel svm.Kernel
	// ScaleTable supplies §6.2 selections for SCALING (nil = linear).
	ScaleTable *core.ScaleTable
	// Techniques lists which rows to train (nil = all applicable).
	Techniques []string
}

func (c *TrainConfig) martConfig() mart.Config {
	mc := mart.DefaultConfig()
	if c.MartIterations > 0 {
		mc.Iterations = c.MartIterations
	}
	return mc
}

// TrainTechniques trains every requested technique on executed plans.
func TrainTechniques(train []*plan.Plan, cfg TrainConfig) (*TechniqueSet, error) {
	ts := &TechniqueSet{Resource: cfg.Resource, Mode: cfg.Mode, Models: map[string]PlanEstimator{}}
	want := map[string]bool{}
	if len(cfg.Techniques) == 0 {
		for _, t := range []string{TechOPT, TechAkdere, TechLinear, TechMART, TechSVM, TechRegTree, TechScaling} {
			want[t] = true
		}
	} else {
		for _, t := range cfg.Techniques {
			want[t] = true
		}
	}
	if want[TechOPT] {
		// OPT only makes sense with optimizer estimates; it is trained
		// regardless and reported in the estimated-features sections.
		adj := optimizer.FitAdjusted(optimizer.DefaultModel(), train, cfg.Resource)
		ts.Models[TechOPT] = &optEstimator{adj: adj}
	}
	if want[TechAkdere] {
		m, err := trainAkdere(train, cfg.Resource, cfg.Mode)
		if err != nil {
			return nil, err
		}
		ts.Models[TechAkdere] = m
	}
	if want[TechLinear] {
		m, err := trainPerOp(train, cfg.Resource, cfg.Mode,
			func(x [][]float64, y []float64) (predictor, error) {
				return linreg.Train(x, y, linreg.DefaultConfig())
			})
		if err != nil {
			return nil, err
		}
		ts.Models[TechLinear] = m
	}
	if want[TechMART] {
		ccfg := core.DefaultConfig()
		ccfg.Mart = cfg.martConfig()
		ccfg.Mode = cfg.Mode
		ccfg.DisableScaling = true
		m, err := core.Train(train, cfg.Resource, nil, ccfg)
		if err != nil {
			return nil, err
		}
		ts.Models[TechMART] = m
	}
	if want[TechSVM] {
		kernel := cfg.SVMKernel
		if kernel == nil {
			kernel = svm.PolyKernel{Degree: 1}
		}
		m, err := trainPerOp(train, cfg.Resource, cfg.Mode,
			func(x [][]float64, y []float64) (predictor, error) {
				sc := svm.DefaultConfig()
				sc.Kernel = kernel
				return svm.Train(x, y, sc)
			})
		if err != nil {
			return nil, err
		}
		ts.Models[TechSVM] = m
	}
	if want[TechRegTree] {
		m, err := trainPerOp(train, cfg.Resource, cfg.Mode,
			func(x [][]float64, y []float64) (predictor, error) {
				return regtree.Train(x, y, regtree.DefaultConfig())
			})
		if err != nil {
			return nil, err
		}
		ts.Models[TechRegTree] = m
	}
	if want[TechScaling] {
		ccfg := core.DefaultConfig()
		ccfg.Mart = cfg.martConfig()
		ccfg.Mode = cfg.Mode
		m, err := core.Train(train, cfg.Resource, cfg.ScaleTable, ccfg)
		if err != nil {
			return nil, err
		}
		ts.Models[TechScaling] = m
	}
	if want[TechKCCA] {
		var xs [][]float64
		var ys []float64
		for _, p := range train {
			xs = append(xs, kcca.PlanFeatures(p))
			ys = append(ys, p.TotalActual().Get(cfg.Resource))
		}
		m, err := kcca.Train(xs, ys, 3)
		if err != nil {
			return nil, err
		}
		ts.Models[TechKCCA] = &kccaEstimator{m: m}
	}
	return ts, nil
}
