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
// them together behind a small, stable surface. See the examples/
// directory for runnable end-to-end usage.
package repro

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/feedback"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
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
	// SkipScaleSelection skips the §6.2 sweep experiments and uses
	// linear scaling everywhere (faster training, slightly less accurate
	// extrapolation for sorts and nested loops).
	SkipScaleSelection bool
	// BaselineProbe stamps the model's drift-detection baseline from an
	// out-of-sample probe: a throwaway model is trained on 4/5 of the
	// plans and evaluated on the held-out 1/5 (roughly doubling training
	// time). Without it the baseline is the cheap in-sample error, which
	// understates real error and makes the feedback loop's drift
	// detector more sensitive — enable this for models that will serve
	// with the feedback loop attached (resserve -bootstrap does).
	BaselineProbe bool
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
// instead of training the two models back to back (cmd/resserve
// -bootstrap uses this). opts.Resource is ignored; per-resource results
// are bit-identical to separate Train calls with the same options.
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
	table := core.NewScaleTable()
	if !opts.SkipScaleSelection && !opts.DisableScaling {
		eng := engine.New(nil)
		b := workload.NewBuilder(workload.DBFor("tpch", 2, 1), 1)
		table = core.SelectScaleFunctions(eng, b)
		table.MirrorScanKinds()
	}
	inner, err := core.TrainSet(plans, resources, table, cfg)
	if err != nil {
		return nil, err
	}
	// Stamp the drift-detection baselines: they persist with the models
	// and the feedback loop compares production errors against them. The
	// probe (see TrainOptions.BaselineProbe) measures out-of-sample error
	// with throwaway 4/5 models — one more parallel pass covering every
	// resource — while the returned estimators still train on every plan.
	const probeFold = 5
	var probes map[plan.ResourceKind]*core.Estimator
	var probeHold []*plan.Plan
	if opts.BaselineProbe && len(plans) >= 2*probeFold {
		var probeTrain []*plan.Plan
		for i, p := range plans {
			if i%probeFold == probeFold-1 {
				probeHold = append(probeHold, p)
			} else {
				probeTrain = append(probeTrain, p)
			}
		}
		if ps, err := core.TrainSet(probeTrain, resources, table, cfg); err == nil {
			probes = ps
		}
	}
	out := make([]*Estimator, len(resources))
	for i, r := range resources {
		e := inner[r]
		if probe := probes[r]; probe != nil {
			b := probe.EvalPlans(probeHold)
			e.Baseline = &b
		}
		if e.Baseline == nil {
			e.SetBaseline(plans)
		}
		out[i] = &Estimator{inner: e}
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

// --- Serving ---------------------------------------------------------
//
// The serving API turns trained estimators into a concurrent service:
// models are published into a registry (hot-swappable at runtime),
// per-operator predictions are memoized in a sharded LRU cache, and
// requests run on a bounded worker pool with per-request deadlines.
// cmd/resserve exposes the same service over HTTP. The service also
// keeps one response cache, at the byte boundary: POST /estimate and
// the streaming transport's estimate frame answer a body they have
// answered before without parsing it, each replaying what the other
// computed. Service.Estimate, the in-process call, does not go through
// it.

// Serving types, re-exported like the plan types above.
type (
	// Service is the concurrent estimation service.
	Service = serve.Service
	// ServeOptions configures cache size, worker pool and deadlines.
	ServeOptions = serve.Options
	// EstimateRequest selects a model and carries the plan to estimate.
	EstimateRequest = serve.Request
	// ModelInfo describes a published model version.
	ModelInfo = serve.ModelInfo
)

// NewService starts an estimation service and its worker pool. Callers
// should Close it when done.
//
// The service is instrumented end to end (see README "Observability"):
// per-endpoint and per-stage latency histograms, slow-request traces
// through ServeOptions.Logger/SlowTrace, and Prometheus text exposition
// on GET /metrics content-negotiated alongside the legacy JSON
// snapshot. ServeOptions.DisableTelemetry switches the stage timing
// off; the plain counters always run.
func NewService(opts ServeOptions) *Service { return serve.New(opts) }

// --- Streaming transport ---------------------------------------------
//
// The streaming transport serves estimates over persistent framed TCP
// connections: many requests interleave in flight on one connection,
// and the server coalesces requests *across* connections into
// micro-batched dispatches through the same pool/cache path as HTTP —
// responses stay byte-identical to POST /estimate, and a repeated
// request is answered from the service's response cache, the one POST
// /estimate asks. cmd/resserve
// exposes it with -stream-addr; see README "Streaming protocol" for
// the frame layout and the coalescing rule.

// Streaming types, re-exported like the serving types above.
type (
	// StreamServer is the coalescing streaming listener.
	StreamServer = stream.Server
	// StreamServerOptions names the service and the per-connection
	// idle/write deadlines. Micro-batching has no options: a request is
	// sent on at once when nothing for its route is outstanding and
	// joins the next dispatch while something is.
	StreamServerOptions = stream.Options
)

// StartStreamServer binds addr and serves the streaming estimate
// protocol for opts.Service in the background until Close. Register
// the server's Collector on the service's metrics registry
// (Service.Obs) to surface the stream series on GET /metrics.
func StartStreamServer(addr string, opts StreamServerOptions) (*StreamServer, error) {
	return stream.Start(addr, opts)
}

// --- Versioned model store -------------------------------------------
//
// The model store is the single durable source of truth for published
// models: every publish — bootstrap training, a POST /models upload, a
// feedback-loop retrain — persists one atomic snapshot (model files +
// checksummed JSON manifest) per schema, and the registry restores the
// latest snapshots at boot and rolls back through snapshot history.

// Store types, re-exported like the serving types above.
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

// AttachModelStore puts the service's registry in store-backed mode
// and restores the newest intact snapshot of every schema in the
// store: after this, every publish persists a coherent snapshot,
// rollback walks snapshot history (surviving process restarts), and
// the returned infos describe the models restored from disk.
func AttachModelStore(s *Service, st *ModelStore, logf func(format string, args ...any)) ([]ModelInfo, error) {
	s.Registry().AttachStore(st, logf)
	return s.Registry().RestoreFromStore()
}

// PublishAs is Publish with the producing subsystem recorded in the
// store manifest ("bootstrap", "upload", "retrain", ...).
func PublishAs(s *Service, schema string, e *Estimator, source string) ModelInfo {
	return s.Registry().PublishAs(schema, e.inner, source)
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

// Publish installs a trained estimator as the current model for the
// schema (atomically replacing any prior version; in-flight requests
// finish on the version they started with). Schema "" installs the
// fallback used when a request's schema has no dedicated model.
func Publish(s *Service, schema string, e *Estimator) ModelInfo {
	return s.Registry().Publish(schema, e.inner)
}

// PublishModelFile loads a model set saved with Save/SaveFile and
// publishes it under the schema.
func PublishModelFile(s *Service, schema, path string) (ModelInfo, error) {
	return s.Registry().PublishFile(schema, path)
}

// Rollback reverts (schema, resource) to the previously published model
// version. The prior estimator comes back under a fresh version number,
// so prediction-cache entries from the rolled-back version never serve.
func Rollback(s *Service, schema string, r Resource) (ModelInfo, error) {
	return s.Registry().Rollback(schema, r)
}

// --- Online feedback loop --------------------------------------------
//
// The feedback subsystem closes the serve → observe → retrain →
// hot-swap cycle: executed plans reported back (POST /observe or
// FeedbackLoop.Observe) land in a crash-safe segmented observation log
// and per-model rolling error windows; when recent errors drift past a
// multiple of the model's training-time baseline, a background
// retrainer fits a fresh estimator to the logged observations,
// validates it on a held-out slice (rejecting candidates that do not
// beat the incumbent), and hot-swaps it into the registry.

// Feedback types, re-exported like the serving types above.
type (
	// FeedbackLoop is the online feedback controller.
	FeedbackLoop = feedback.Loop
	// FeedbackOptions configures the observation log, drift detector
	// and retrainer.
	FeedbackOptions = feedback.Options
	// Observation is one (plan, predicted, actual) triple reported by
	// the serving path.
	Observation = feedback.Observation
)

// NewServiceWithFeedback starts an estimation service with the online
// feedback loop attached: the loop's retrainer publishes into the
// service's registry, POST /observe ingests observations, and /metrics
// carries the per-model error gauges. Close the service first, then the
// loop (which closes the observation log).
func NewServiceWithFeedback(opts ServeOptions, fopts FeedbackOptions) (*Service, *FeedbackLoop, error) {
	if opts.Registry == nil {
		opts.Registry = serve.NewRegistry()
	}
	if fopts.Publisher == nil {
		fopts.Publisher = opts.Registry
	}
	loop, err := feedback.New(fopts)
	if err != nil {
		return nil, nil, err
	}
	opts.Feedback = loop
	return serve.New(opts), loop, nil
}

// --- Distributed serving tier ----------------------------------------
//
// The cluster subsystem fronts N resserve replicas with a
// schema-affinity router (consistent-hash placement, version-skew
// guarded spillover, version-keyed response caching, load shedding)
// and closes the feedback loop across the fleet: replicas forward
// observation-log segments to one designated retrainer, whose
// published snapshots followers pick up from the shared model store.
// cmd/resrouter is the standalone router binary; see README
// "Distributed deployment".

// Cluster types, re-exported like the serving types above.
type (
	// Router fronts a replica fleet behind the single-node HTTP and
	// stream surfaces.
	Router = cluster.Router
	// RouterOptions configures placement, pooling, polling, caching
	// and admission bounds.
	RouterOptions = cluster.Options
	// ObservationForwarder tails a replica's observation log and ships
	// segments to the fleet's designated retrainer.
	ObservationForwarder = cluster.Forwarder
	// ObservationForwarderOptions configures the forwarder's source
	// directory, target and poll interval.
	ObservationForwarderOptions = cluster.ForwarderOptions
)

// NewRouter builds a schema-affinity router over the configured
// replicas and polls their health once synchronously, so routing
// state is live on return. Close it when done.
func NewRouter(opts RouterOptions) (*Router, error) { return cluster.New(opts) }

// StartObservationForwarder starts forwarding a replica's observation
// segments to the retrainer at opts.Target (its /observe/segment
// endpoint). Close it when done; pair it with a service built by
// NewServiceWithObservationLog.
func StartObservationForwarder(opts ObservationForwarderOptions) (*ObservationForwarder, error) {
	return cluster.NewForwarder(opts)
}

// NewServiceWithObservationLog is the forwarding-replica variant of
// NewServiceWithFeedback: POST /observe lands in the local
// observation log and feeds the error gauges, but no retrainer runs —
// fopts.Publisher is deliberately left unset, because retraining is
// the designated retrainer's job and an ObservationForwarder ships
// the log there.
func NewServiceWithObservationLog(opts ServeOptions, fopts FeedbackOptions) (*Service, *FeedbackLoop, error) {
	fopts.Publisher = nil
	loop, err := feedback.New(fopts)
	if err != nil {
		return nil, nil, err
	}
	opts.Feedback = loop
	return serve.New(opts), loop, nil
}

// AttachModelStoreFollower attaches the store in follower mode: the
// registry serves the store's newest snapshots but never writes pins
// or rollback state — the store stays owned by the fleet's retrainer.
// Use SyncFromModelStore to poll for newer snapshots afterwards.
func AttachModelStoreFollower(s *Service, st *ModelStore, logf func(format string, args ...any)) ([]ModelInfo, error) {
	s.Registry().AttachStore(st, logf)
	return s.Registry().SyncFromStore()
}

// SyncFromModelStore publishes any store snapshots newer than what the
// registry currently serves — the follower's poll body. It never
// regresses a served version.
func SyncFromModelStore(s *Service) ([]ModelInfo, error) { return s.Registry().SyncFromStore() }
