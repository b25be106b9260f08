package core

import (
	"repro/internal/features"
	"repro/internal/mart"
	"repro/internal/plan"
)

// Config controls estimator training.
type Config struct {
	// Mart configures the underlying boosted-tree training.
	Mart mart.Config
	// Mode selects exact or optimizer-estimated input features.
	Mode features.Mode
	// DisableScaling turns the estimator into the plain MART baseline
	// (default models only, no combined candidates) — used for the MART
	// rows of the tables and the ablations.
	DisableScaling bool
	// DisableNormalization skips dependent-feature normalization
	// (ablation of §6.1 modification 3).
	DisableNormalization bool
	// Workers bounds the training worker pool. The independent
	// (operator, resource, candidate scale-set) fits fan out across it
	// at the model level, and spare workers flow down into the
	// tree-level MART parallelism (Mart.Workers is managed by the
	// pipeline and need not be set). <= 0 selects GOMAXPROCS; 1 trains
	// sequentially. The trained estimator is bit-identical at any
	// worker count.
	Workers int
}

// DefaultConfig returns the standard training setup. Experiments lower
// the iteration count when training many models.
func DefaultConfig() Config {
	return Config{Mart: mart.DefaultConfig(), Mode: features.Exact}
}

// Estimator is the full SCALING resource estimator: one OperatorModels
// per physical operator type for a single resource.
//
// Concurrency: an Estimator is immutable once returned by Train or
// LoadEstimator, and every prediction method (PredictNode, PredictPlan,
// PredictPipelines, PredictVector) only reads model state — feature
// transformation allocates per call, model selection and the MART tree
// walks are pure. Estimators are therefore safe for unlimited concurrent
// use, which internal/serve relies on for lock-free serving; keep any
// future mutation out of the predict path (retraining must build a new
// Estimator and swap it in atomically).
type Estimator struct {
	Resource plan.ResourceKind
	Mode     features.Mode
	Ops      map[plan.OpKind]*OperatorModels
	// Baseline is the training-time error snapshot the drift detector
	// compares production errors against (see baseline.go). Optional:
	// nil on estimators trained before baselines existed or when the
	// trainer never called SetBaseline.
	Baseline *ErrorBaseline
	// fallbackMean is the mean per-operator resource over all training
	// samples, used for operator kinds never seen in training.
	fallbackMean float64
}

// CollectSamples extracts per-operator training samples from executed
// plans (their Actual resources must be filled in by the engine).
func CollectSamples(plans []*plan.Plan, r plan.ResourceKind, mode features.Mode) map[plan.OpKind][]Sample {
	out := make(map[plan.OpKind][]Sample)
	for _, p := range plans {
		vecs := features.ExtractPlan(p, mode)
		for i, n := range p.Nodes() {
			out[n.Kind] = append(out[n.Kind], Sample{X: vecs[i], Y: n.Actual.Get(r)})
		}
	}
	return out
}

// Train fits the estimator on executed training plans. The scale table
// supplies the §6.2-selected scaling-function forms (nil = the paper's
// selection, see TrainSet).
// Training fans the independent (operator, candidate scale-set) fits
// across cfg.Workers workers — see TrainSet, which this delegates to —
// with bit-identical output at any worker count.
func Train(plans []*plan.Plan, r plan.ResourceKind, t *ScaleTable, cfg Config) (*Estimator, error) {
	ests, err := TrainSet(plans, []plan.ResourceKind{r}, t, cfg)
	if err != nil {
		return nil, err
	}
	return ests[r], nil
}

// PredictNode estimates one operator's resource usage. parent may be
// nil for roots.
func (e *Estimator) PredictNode(n *plan.Node, parent *plan.Node) float64 {
	v := features.Extract(n, parent, e.Mode)
	om, ok := e.Ops[n.Kind]
	if !ok {
		return e.fallbackMean
	}
	return om.PredictVector(&v)
}

// PredictVector estimates one operator's resource usage from an
// already-extracted feature vector. This is the entry point used by the
// serving layer, which extracts vectors once and memoizes per-vector
// predictions.
func (e *Estimator) PredictVector(kind plan.OpKind, v *features.Vector) float64 {
	om, ok := e.Ops[kind]
	if !ok {
		return e.fallbackMean
	}
	return om.PredictVector(v)
}

// PredictPlan estimates the plan-level resource usage: the sum of the
// per-operator estimates, mirroring how the paper aggregates operator
// models to queries.
func (e *Estimator) PredictPlan(p *plan.Plan) float64 {
	vecs := features.ExtractPlan(p, e.Mode)
	var total float64
	for i, n := range p.Nodes() {
		om, ok := e.Ops[n.Kind]
		if !ok {
			total += e.fallbackMean
			continue
		}
		total += om.PredictVector(&vecs[i])
	}
	return total
}

// PredictPipelines estimates per-pipeline resource usage — the
// scheduling granularity §5.2 motivates operator-level modeling with.
// The result is parallel to p.Pipelines().
func (e *Estimator) PredictPipelines(p *plan.Plan) []float64 {
	vecs := features.ExtractPlan(p, e.Mode)
	byNode := make(map[*plan.Node]float64, len(vecs))
	for i, n := range p.Nodes() {
		if om, ok := e.Ops[n.Kind]; ok {
			byNode[n] = om.PredictVector(&vecs[i])
		} else {
			byNode[n] = e.fallbackMean
		}
	}
	pipes := p.Pipelines()
	out := make([]float64, len(pipes))
	for i, pl := range pipes {
		for _, n := range pl.Nodes {
			out[i] += byNode[n]
		}
	}
	return out
}

// NumModels returns the total number of trained candidate models.
func (e *Estimator) NumModels() int {
	n := 0
	for _, om := range e.Ops {
		n += len(om.Candidates)
	}
	return n
}

// TrainSamples returns the total number of per-operator training
// samples behind the estimator — the provenance figure surfaced by
// model lineage. Zero on estimators persisted before sample counts
// were recorded.
func (e *Estimator) TrainSamples() int {
	n := 0
	for _, om := range e.Ops {
		n += om.NSamples
	}
	return n
}
