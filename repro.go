// Package repro is the public API of this reproduction of
//
//	Li, König, Narasayya, Chaudhuri:
//	"Robust Estimation of Resource Consumption for SQL Queries using
//	Statistical Techniques", PVLDB 5(11), 2012.
//
// It exposes the paper's estimation framework end to end:
//
//   - generating the evaluation workloads over synthetic skewed data,
//   - executing them on the query-engine simulator to obtain
//     per-operator CPU/I/O measurements,
//   - training the SCALING estimator (MART + scaling functions, §6) and
//     the baselines, and
//   - estimating resources for new plans at query, pipeline and
//     operator granularity.
//
// The heavy lifting lives in the internal packages; this package wires
// them together behind a small, stable surface. It is the estimation
// library only: serving is cmd/resserve and cmd/resrouter over
// internal/serve, internal/feedback and internal/cluster. See the
// examples/ directory for runnable end-to-end usage.
package repro

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/workload"
)

// Re-exported plan types: users build or inspect physical plans through
// these.
type (
	// Plan is a physical query plan.
	Plan = plan.Plan
	// Node is one physical operator.
	Node = plan.Node
	// Resources is a (CPU ms, logical I/O) pair.
	Resources = plan.Resources
	// Query is a generated workload entry.
	Query = workload.Query
)

// Resource selects the predicted resource type.
type Resource = plan.ResourceKind

// The two resource types the paper models.
const (
	CPUTime   = plan.CPUTime
	LogicalIO = plan.LogicalIO
)

// AllResources lists every resource kind, in declaration order — the
// multi-resource request set meaning "everything".
func AllResources() []Resource { return plan.ResourceKinds() }

// WorkloadOptions controls synthetic workload generation.
type WorkloadOptions struct {
	// Schema is one of "tpch", "tpcds", "real1", "real2".
	Schema string
	// N is the number of queries.
	N int
	// ScaleFactors are drawn uniformly per query (default {1..10}).
	ScaleFactors []float64
	// Skew is the Zipf exponent of the data (default 2, the paper's
	// high-skew setting).
	Skew float64
	// Seed drives all randomness.
	Seed uint64
}

// GenerateWorkload builds a query workload over the requested schema.
// The plans carry true and optimizer-estimated cardinalities but no
// measurements; run them with Execute.
func GenerateWorkload(opts WorkloadOptions) ([]*Query, error) {
	if opts.N <= 0 {
		return nil, fmt.Errorf("repro: workload size %d", opts.N)
	}
	cfg := workload.DefaultConfig()
	cfg.N = opts.N
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.Skew > 0 {
		cfg.Z = opts.Skew
	}
	if len(opts.ScaleFactors) > 0 {
		cfg.SFs = opts.ScaleFactors
	}
	switch opts.Schema {
	case "", "tpch":
		return workload.GenTPCH(cfg), nil
	case "tpcds":
		return workload.GenGeneric("tpcds", cfg, 2, 5), nil
	case "real1":
		return workload.GenGeneric("real1", cfg, 4, 7), nil
	case "real2":
		return workload.GenGeneric("real2", cfg, 8, 11), nil
	}
	return nil, fmt.Errorf("repro: unknown schema %q", opts.Schema)
}

// Execute runs the queries on the engine simulator, filling in actual
// per-operator resource usage, and returns the per-query totals.
func Execute(queries []*Query) []Resources {
	eng := engine.New(nil)
	out := make([]Resources, len(queries))
	for i, q := range queries {
		out[i] = eng.Run(q.Plan)
	}
	return out
}

// TrainOptions controls estimator training.
type TrainOptions struct {
	// Resource to predict (CPUTime or LogicalIO).
	Resource Resource
	// UseEstimatedFeatures trains on optimizer-estimated cardinalities
	// instead of exact ones (§7.1.2 mode).
	UseEstimatedFeatures bool
	// BoostingIterations for the MART models (default 1000, the paper's
	// setting; accuracy saturates much earlier on simulated data).
	BoostingIterations int
	// DisableScaling reduces the estimator to the plain MART baseline.
	DisableScaling bool
	// Workers bounds the training worker pool: the independent
	// (operator, resource, candidate scale-set) MART fits fan out
	// across it, with spare workers flowing down into the tree-level
	// parallelism inside each fit. 0 (the default) uses GOMAXPROCS; 1
	// trains sequentially on the calling goroutine. Trained models are
	// bit-identical at any worker count — parallelism moves wall-clock,
	// never predictions.
	Workers int
}

// Estimator predicts the resource consumption of query plans.
type Estimator struct {
	inner *core.Estimator
}

// Train fits an estimator on executed training queries (run them with
// Execute first). Training runs on the parallel pipeline — see
// TrainOptions.Workers — and delegates to TrainSet with a single
// resource.
func Train(queries []*Query, opts TrainOptions) (*Estimator, error) {
	ests, err := TrainSet(queries, opts, opts.Resource)
	if err != nil {
		return nil, err
	}
	return ests[0], nil
}

// TrainSet trains one estimator per requested resource from the same
// executed queries in a single parallel pass: every (resource ×
// operator × candidate scale-set) fit is an independent job on one
// bounded worker pool, so a CPU+I/O bootstrap saturates the machine
// instead of training the two models back to back. opts.Resource is
// ignored; per-resource results are bit-identical to separate Train
// calls with the same options.
func TrainSet(queries []*Query, opts TrainOptions, resources ...Resource) ([]*Estimator, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("repro: no training queries")
	}
	if len(resources) == 0 {
		return nil, fmt.Errorf("repro: no resources to train")
	}
	plans := make([]*plan.Plan, len(queries))
	for i, q := range queries {
		if q.Plan.TotalActual().CPU == 0 && q.Plan.TotalActual().IO == 0 {
			return nil, fmt.Errorf("repro: query %d not executed; call Execute first", i)
		}
		plans[i] = q.Plan
	}
	cfg := core.DefaultConfig()
	if opts.BoostingIterations > 0 {
		cfg.Mart.Iterations = opts.BoostingIterations
	}
	if opts.UseEstimatedFeatures {
		cfg.Mode = features.Estimated
	}
	cfg.DisableScaling = opts.DisableScaling
	cfg.Workers = opts.Workers
	inner, err := core.TrainSet(plans, resources, nil, cfg)
	if err != nil {
		return nil, err
	}
	// Stamp the in-sample drift-detection baselines: they persist with
	// the models and the feedback loop compares production errors
	// against them.
	out := make([]*Estimator, len(resources))
	for i, r := range resources {
		inner[r].SetBaseline(plans)
		out[i] = &Estimator{inner: inner[r]}
	}
	return out, nil
}

// Resource returns the resource type the estimator predicts.
func (e *Estimator) Resource() Resource { return e.inner.Resource }

// EstimatePlan predicts the plan's total resource usage.
func (e *Estimator) EstimatePlan(p *Plan) float64 { return e.inner.PredictPlan(p) }

// EstimateQuery predicts a workload query's total resource usage.
func (e *Estimator) EstimateQuery(q *Query) float64 { return e.inner.PredictPlan(q.Plan) }

// PlanExplanation is the per-operator breakdown of one plan estimate:
// which model scored each operator, the scaled feature vector it saw,
// and the per-tree margins that sum to the operator estimate. Its
// String method renders a human-readable report.
type PlanExplanation = core.Explanation

// Explain predicts the plan's total resource usage and reports how the
// estimate was assembled, operator by operator. The explanation's Total
// is bit-identical to EstimatePlan on the same plan — explaining never
// perturbs the prediction. It costs one extra model-evaluation pass, so
// keep it off hot paths.
func (e *Estimator) Explain(p *Plan) *PlanExplanation { return e.inner.Explain(p) }

// EstimateOperator predicts a single operator's resource usage. parent
// may be nil for the root.
func (e *Estimator) EstimateOperator(n *Node, parent *Node) float64 {
	return e.inner.PredictNode(n, parent)
}

// EstimatePipelines predicts per-pipeline usage, parallel to
// p.Pipelines() — the granularity relevant for scheduling (§5.2).
func (e *Estimator) EstimatePipelines(p *Plan) []float64 {
	return e.inner.PredictPipelines(p)
}

// EstimateQueries predicts the total resource usage of workload
// queries in one pass over the batched hot path: features are extracted
// into a flat buffer, nodes are grouped by operator and evaluated on
// the compiled (cache-friendly, flattened) tree layout. The result is
// parallel to qs, and every total is bit-identical to EstimateQuery on
// the same query — batching changes throughput, never predictions.
func (e *Estimator) EstimateQueries(qs []*Query) []float64 {
	plans := make([]*Plan, len(qs))
	for i, q := range qs {
		plans[i] = q.Plan
	}
	return e.inner.PredictPlans(plans)
}

// --- Multi-resource estimation ---------------------------------------
//
// The paper trains independent models per resource; an EstimatorSet
// bundles one estimator per resource so a plan's features are
// extracted once and fanned out across every member — per-resource
// results bit-identical to the single estimators, at a fraction of the
// cost of sequential calls.

// EstimatorSet predicts several resources from one feature-extraction
// pass.
type EstimatorSet struct {
	inner *core.EstimatorSet
}

// NewEstimatorSet bundles estimators (at most one per resource, all
// trained with the same feature mode) into a multi-resource set.
func NewEstimatorSet(ests ...*Estimator) (*EstimatorSet, error) {
	inner := make([]*core.Estimator, len(ests))
	for i, e := range ests {
		if e == nil {
			return nil, fmt.Errorf("repro: nil estimator in set")
		}
		inner[i] = e.inner
	}
	set, err := core.NewEstimatorSet(inner...)
	if err != nil {
		return nil, err
	}
	return &EstimatorSet{inner: set}, nil
}

// Resources lists the resource kinds the set predicts.
func (s *EstimatorSet) Resources() []Resource { return s.inner.Resources() }

// Estimator returns the member predicting r, or nil.
func (s *EstimatorSet) Estimator(r Resource) *Estimator {
	inner := s.inner.Estimator(r)
	if inner == nil {
		return nil
	}
	return &Estimator{inner: inner}
}

// EstimatePlanAll predicts the plan's total usage of every resource in
// the set in one pass.
func (s *EstimatorSet) EstimatePlanAll(p *Plan) Resources {
	return s.inner.PredictPlanAll(p)
}

// EstimateQueriesAll predicts workload queries across every resource
// in the set: one batched feature extraction, one fan-out over the
// compiled tree layouts. The result is parallel to qs.
func (s *EstimatorSet) EstimateQueriesAll(qs []*Query) []Resources {
	plans := make([]*Plan, len(qs))
	for i, q := range qs {
		plans[i] = q.Plan
	}
	return s.inner.PredictPlansAll(plans)
}

// Save writes the trained model set to w. The format embeds the compact
// per-tree binary encoding of §7.3.
func (e *Estimator) Save(w io.Writer) error { return e.inner.Save(w) }

// SaveFile writes the model set to a file.
func (e *Estimator) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.inner.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a model set written by Save.
func Load(r io.Reader) (*Estimator, error) {
	inner, err := core.LoadEstimator(r)
	if err != nil {
		return nil, err
	}
	return &Estimator{inner: inner}, nil
}

// LoadFile reads a model set from a file.
func LoadFile(path string) (*Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// --- Versioned model store -------------------------------------------
//
// The model store holds atomic, checksummed snapshots of a schema's
// models — what cmd/resserve -store-dir serves from and persists every
// publish into. These calls are the offline side: an offline producer
// writes a snapshot, an offline consumer reads the newest one.

// Store types, re-exported like the plan types above.
type (
	// ModelStore is the versioned on-disk model store.
	ModelStore = store.Store
	// ModelStoreOptions configures retention and logging.
	ModelStoreOptions = store.Options
	// ModelManifest describes one persisted snapshot.
	ModelManifest = store.Manifest
)

// OpenModelStore opens (creating if needed) the model store rooted at
// dir, cleaning up partial publishes left by crashes.
func OpenModelStore(dir string, opts ModelStoreOptions) (*ModelStore, error) {
	return store.Open(dir, opts)
}

// LoadLatestEstimators loads the newest intact snapshot for schema
// from the store as a multi-resource EstimatorSet.
func LoadLatestEstimators(st *ModelStore, schema string) (*EstimatorSet, *ModelManifest, error) {
	loaded, err := st.LoadLatest(schema)
	if err != nil {
		return nil, nil, err
	}
	ests := make([]*core.Estimator, 0, len(loaded.Models))
	for _, r := range plan.ResourceKinds() {
		if e, ok := loaded.Models[r]; ok {
			ests = append(ests, e)
		}
	}
	set, err := core.NewEstimatorSet(ests...)
	if err != nil {
		return nil, nil, err
	}
	return &EstimatorSet{inner: set}, loaded.Manifest, nil
}

// SaveSnapshot persists a model set for schema directly to the store —
// the offline producer's path (e.g. restrain writing into a serving
// store), equivalent to what the serving registry does on publish.
func SaveSnapshot(st *ModelStore, schema, source string, ests ...*Estimator) (*ModelManifest, error) {
	models := make(map[Resource]*core.Estimator, len(ests))
	for _, e := range ests {
		if e == nil {
			return nil, fmt.Errorf("repro: nil estimator in snapshot")
		}
		if _, dup := models[e.inner.Resource]; dup {
			return nil, fmt.Errorf("repro: duplicate %s estimator in snapshot", e.inner.Resource)
		}
		models[e.inner.Resource] = e.inner
	}
	return st.Publish(store.Snapshot{Schema: schema, Source: source, Models: models})
}
