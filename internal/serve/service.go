package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/feedback"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Errors the request path distinguishes for clients (the HTTP layer
// maps them to status codes).
var (
	// ErrNoModel means no published model matches the request's
	// (schema, resource) and no wildcard fallback exists.
	ErrNoModel = errors.New("serve: no model for request")
	// ErrClosed means the service has been shut down.
	ErrClosed = errors.New("serve: service closed")
	// ErrUnknownResource means a request named a resource kind this
	// build does not model. The HTTP layer maps it to the structured
	// error envelope with code "unknown_resource".
	ErrUnknownResource = errors.New("serve: unknown resource")
	// ErrModeMismatch means a multi-resource request routed to models
	// that disagree on the feature mode (exact vs estimated), so one
	// extraction pass cannot serve them together. Publish consistently
	// trained models, or request the resources separately.
	ErrModeMismatch = errors.New("serve: models for the requested resources disagree on feature mode")
)

// Options configures a Service.
type Options struct {
	// Registry to route models from. A fresh empty registry is created
	// when nil.
	Registry *Registry
	// CacheEntries bounds the prediction cache (total entries across
	// shards). 0 selects the default (65536); negative disables caching.
	CacheEntries int
	// Workers sets the estimation worker-pool size. 0 selects
	// GOMAXPROCS. The pool bounds concurrent model evaluation so a
	// traffic burst degrades into queueing (bounded by deadlines)
	// instead of unbounded goroutine fan-out.
	Workers int
	// QueueDepth bounds the request queue feeding the pool. 0 selects
	// 4× Workers. When the queue is full, Estimate blocks until space
	// frees or the request deadline fires.
	QueueDepth int
	// DefaultTimeout applies to requests that carry no deadline of
	// their own. 0 selects 2s.
	DefaultTimeout time.Duration
	// ModelDir confines the POST /models hot-swap endpoint: published
	// paths are resolved inside it and may not escape. Empty disables
	// the endpoint (in-process Registry publishing is unaffected).
	ModelDir string
	// Feedback, when set, closes the online loop: POST /observe feeds
	// it, /metrics surfaces its per-model error gauges, and its
	// retrainer publishes into this service's registry. The loop should
	// be constructed with this service's Registry as its Publisher
	// (repro.NewServiceWithFeedback wires that up). The service does not
	// own the loop; close it after the service.
	Feedback *feedback.Loop
	// Logger receives slow-request traces and the shutdown metrics
	// summary. Nil selects slog.Default().
	Logger *slog.Logger
	// SlowTrace, when > 0, emits one structured log record (request ID,
	// endpoint, per-stage breakdown) for every request whose end-to-end
	// latency reaches the threshold. 0 disables slow tracing.
	SlowTrace time.Duration
	// DisableTelemetry turns off per-stage latency histograms and
	// request traces, removing their clock reads and atomic adds from
	// the hot path. Counters (requests, failures, cache, models) remain;
	// they predate the telemetry layer and cost one atomic add each.
	// Exists for the benchmark's overhead figure
	// (obs.telemetry_overhead_pct) and for callers that want the last
	// fraction of a percent.
	DisableTelemetry bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Registry == nil {
		out.Registry = NewRegistry()
	}
	if out.CacheEntries == 0 {
		out.CacheEntries = 65536
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 4 * out.Workers
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 2 * time.Second
	}
	return out
}

// Request asks for estimates for one plan.
type Request struct {
	// Schema routes to the model trained for this workload schema
	// (falls back to the registry's "" wildcard).
	Schema string
	// Resource selects the predicted resource for single-resource
	// requests. Ignored when Resources is non-empty.
	Resource plan.ResourceKind
	// Resources selects several resources at once: the plan's features
	// are extracted once and fanned out across every named resource's
	// model in one pass. Order matters only for the response's primary
	// (top-level) fields, which mirror the first entry; duplicates are
	// ignored. Empty means single-resource (Resource).
	Resources []plan.ResourceKind
	// Plan is the physical plan to estimate.
	Plan *plan.Plan
	// Timeout overrides the service default deadline when > 0.
	Timeout time.Duration
	// Explain attaches a per-operator decomposition of the primary
	// resource's prediction to the response (POST /estimate?explain=1):
	// the selected scale-set candidate, out-of-range ratio and per-tree
	// cumulative margins for every operator. Costs one extra model
	// evaluation pass outside the worker pool; off by default.
	Explain bool
}

// OperatorEstimate is one operator's prediction. Estimate carries the
// request's primary (first-listed) resource; Estimates breaks the
// prediction out per resource — parallel to the response's Resources
// list — on multi-resource requests, and is omitted on single-resource
// ones, keeping their wire shape unchanged.
type OperatorEstimate struct {
	ID        int       `json:"id"`
	Kind      string    `json:"kind"`
	Estimate  float64   `json:"estimate"`
	Estimates []float64 `json:"estimates,omitempty"`
}

// PipelineEstimate aggregates the operators of one pipeline, in
// execution order — the granularity scheduling consumes (§5.2).
// Estimates is per-resource on multi-resource requests, like
// OperatorEstimate's.
type PipelineEstimate struct {
	ID        int       `json:"id"`
	Estimate  float64   `json:"estimate"`
	Estimates []float64 `json:"estimates,omitempty"`
	Operators []int     `json:"operators"`
}

// Response carries predictions at all three granularities. Total is
// always the exact sum of Operators, and Pipelines partition Operators,
// whether or not individual predictions came from the cache.
//
// Single-resource requests populate exactly the fields they always
// did (wire-compatible with pre-multi-resource clients). Multi-resource
// requests additionally carry Resources (the requested resources' wire
// names, request order), Models (one ModelInfo per entry of Resources)
// and Totals (per-resource totals, parallel to Resources — as is every
// Estimates list in the response); Model and Total then describe the
// primary (first-requested) resource.
type Response struct {
	Model       ModelInfo          `json:"model"`
	Models      []ModelInfo        `json:"models,omitempty"`
	Resources   []string           `json:"resources,omitempty"`
	Total       float64            `json:"total"`
	Totals      []float64          `json:"totals,omitempty"`
	Operators   []OperatorEstimate `json:"operators"`
	Pipelines   []PipelineEstimate `json:"pipelines"`
	CacheHits   int                `json:"cache_hits"`
	CacheMisses int                `json:"cache_misses"`
	// Explain carries the per-operator prediction decomposition when the
	// request asked for it (Request.Explain); omitted otherwise, keeping
	// the default wire shape unchanged.
	Explain *ExplainInfo `json:"explain,omitempty"`
}

// Metrics is a point-in-time snapshot of service counters. Feedback
// carries the per-model rolling error gauges (observed relative-error
// quantiles, drift and retrain counters per route) when the online
// feedback loop is attached.
type Metrics struct {
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	// BatchRequests counts the subset of Requests that were batches;
	// BatchPlans counts the plans they carried.
	BatchRequests uint64 `json:"batch_requests"`
	BatchPlans    uint64 `json:"batch_plans"`
	// AvgLatencyMS averages over every completed request regardless of
	// endpoint — kept for wire compatibility. A batch of 1000 plans and
	// a single-plan estimate weigh the same here, so the number blends
	// two very different latency populations; Endpoints carries the
	// honest per-endpoint averages.
	AvgLatencyMS float64               `json:"avg_latency_ms"`
	Workers      int                   `json:"workers"`
	Cache        CacheStats            `json:"cache"`
	Models       []ModelInfo           `json:"models"`
	Feedback     []feedback.RouteStats `json:"feedback,omitempty"`
	// Endpoints breaks requests, failures and average latency out per
	// endpoint. Omitted (for wire compatibility with pre-telemetry
	// scrapers) until the service has seen at least one request.
	Endpoints *EndpointsMetrics `json:"endpoints,omitempty"`
}

// EndpointMetrics is one endpoint's counter snapshot.
type EndpointMetrics struct {
	Requests     uint64  `json:"requests"`
	Failures     uint64  `json:"failures"`
	AvgLatencyMS float64 `json:"avg_latency_ms"`
}

// EndpointsMetrics carries per-endpoint counters, keyed by wire name.
type EndpointsMetrics struct {
	Estimate      EndpointMetrics `json:"estimate"`
	EstimateBatch EndpointMetrics `json:"estimate_batch"`
	// EstimateStream counts coalesced dispatches from the streaming
	// transport — one per micro-batch, not one per client request (the
	// stream listener's own metrics count those).
	EstimateStream EndpointMetrics `json:"estimate_stream"`
}

// BatchRequest asks for estimates for several plans in one call. The
// whole batch routes to one model version per requested resource, runs
// as a single worker-pool job with one multi-get against the prediction
// cache, and evaluates its cache misses through the estimator's batched
// hot path (core.EstimatorSet.PredictAllBatch) — amortizing queueing,
// feature extraction and tree-walk cache misses over the batch, and
// sharing the extraction across resources.
type BatchRequest struct {
	// Schema routes to the model trained for this workload schema
	// (falls back to the registry's "" wildcard).
	Schema string
	// Resource selects the predicted resource for single-resource
	// batches. Ignored when Resources is non-empty.
	Resource plan.ResourceKind
	// Resources selects several resources at once (see
	// Request.Resources).
	Resources []plan.ResourceKind
	// Plans are the physical plans to estimate, all against the same
	// (schema, resource-set) models.
	Plans []*plan.Plan
	// Timeout overrides the service default deadline when > 0. It
	// covers the whole batch.
	Timeout time.Duration
}

// PlanEstimate is one plan's predictions within a batch response — the
// same three granularities as Response, minus the shared model header.
type PlanEstimate struct {
	Total     float64            `json:"total"`
	Totals    []float64          `json:"totals,omitempty"`
	Operators []OperatorEstimate `json:"operators"`
	Pipelines []PipelineEstimate `json:"pipelines"`
}

// BatchResponse carries per-plan predictions, parallel to the request's
// Plans, plus batch-level cache counters. Model/Models/Resources follow
// the same single- vs multi-resource convention as Response.
type BatchResponse struct {
	Model       ModelInfo      `json:"model"`
	Models      []ModelInfo    `json:"models,omitempty"`
	Resources   []string       `json:"resources,omitempty"`
	Plans       []PlanEstimate `json:"plans"`
	CacheHits   int            `json:"cache_hits"`
	CacheMisses int            `json:"cache_misses"`
}

// modelSet is a request's resolved routing: one model per requested
// resource, the cache's version vector, and the multi-resource
// estimator fan-out built over the models' (shared-mode) estimators.
type modelSet struct {
	kinds    []plan.ResourceKind
	models   [plan.NumResources]*Model
	versions versionVector
	est      *core.EstimatorSet
}

// primary returns the model the response's top-level fields describe.
func (ms *modelSet) primary() *Model { return ms.models[ms.kinds[0]] }

// multi reports whether the response should carry per-resource fields.
func (ms *modelSet) multi() bool { return len(ms.kinds) > 1 }

// infos lists the models in request order.
func (ms *modelSet) infos() []ModelInfo {
	out := make([]ModelInfo, len(ms.kinds))
	for i, k := range ms.kinds {
		out[i] = ms.models[k].Info
	}
	return out
}

// wireNames lists the requested resources' wire names, request order —
// the Resources field every Estimates/Totals list is parallel to.
func (ms *modelSet) wireNames() []string {
	out := make([]string, len(ms.kinds))
	for i, k := range ms.kinds {
		out[i] = k.WireName()
	}
	return out
}

// appendValues appends v's components for the requested resources, in
// request order. Responses carve their per-operator Estimates lists out
// of one pre-sized backing slice via this, so a multi-resource response
// costs one float allocation per plan, not one map per operator.
func (ms *modelSet) appendValues(dst []float64, v plan.Resources) []float64 {
	for _, k := range ms.kinds {
		dst = append(dst, v.Get(k))
	}
	return dst
}

// normalizeResources resolves a request's resource selection into a
// validated, deduplicated kind list (order-preserving). An empty
// multi-set falls back to the single Resource field.
func normalizeResources(single plan.ResourceKind, set []plan.ResourceKind) ([]plan.ResourceKind, error) {
	if len(set) == 0 {
		set = []plan.ResourceKind{single}
	}
	out := make([]plan.ResourceKind, 0, len(set))
	var seen [plan.NumResources]bool
	for _, k := range set {
		if !k.Valid() {
			return nil, fmt.Errorf("%w: kind %d", ErrUnknownResource, int(k))
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out, nil
}

// lookupModels routes a request's resource set through the registry and
// builds the shared-extraction estimator fan-out.
func (s *Service) lookupModels(schema string, kinds []plan.ResourceKind) (*modelSet, error) {
	ms := &modelSet{kinds: kinds}
	ests := make([]*core.Estimator, 0, len(kinds))
	for _, k := range kinds {
		m, ok := s.reg.Lookup(schema, k)
		if !ok {
			return nil, fmt.Errorf("%w: schema %q resource %s", ErrNoModel, schema, k)
		}
		ms.models[k] = m
		ms.versions[k] = m.Info.Version
		ests = append(ests, m.Est)
	}
	set, err := core.NewEstimatorSet(ests...)
	if err != nil {
		if errors.Is(err, core.ErrModeMismatch) {
			return nil, fmt.Errorf("%w (schema %q)", ErrModeMismatch, schema)
		}
		return nil, err
	}
	ms.est = set
	return ms, nil
}

type job struct {
	ctx    context.Context
	models *modelSet
	plan   *plan.Plan
	out    chan *Response
	// Batch jobs carry plans and deliver on bout instead; plan is nil.
	plans []*plan.Plan
	bout  chan *BatchResponse
	// Stream jobs carry plans and deliver per-plan Responses on sout:
	// the batch compute path, unbundled back into single-estimate wire
	// shapes for the coalescing transport.
	sout chan []*Response
	// Telemetry: the endpoint index, the enqueue instant (zero when
	// telemetry is disabled) and the request's trace, if any. tr is
	// written by the worker and read by the HTTP handler, possibly
	// concurrently after a timeout — its spans are atomic for that
	// reason.
	ep  int
	enq time.Time
	tr  *obs.Trace
}

// Service is the concurrent estimation front end: model lookup through
// the registry, memoized per-operator prediction through the cache, and
// execution on a bounded worker pool with per-request deadlines.
type Service struct {
	opts  Options
	reg   *Registry
	cache *Cache
	start time.Time

	jobs chan *job
	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	requests      atomic.Uint64
	failures      atomic.Uint64
	latencyNS     atomic.Int64
	completed     atomic.Uint64
	batchRequests atomic.Uint64
	batchPlans    atomic.Uint64

	// Per-endpoint counters (indexes epEstimate/epBatch). Separate from
	// the lifetime totals above so /metrics can report honest averages
	// per endpoint instead of blending single and batch populations.
	epRequests  [numEndpoints]atomic.Uint64
	epFailures  [numEndpoints]atomic.Uint64
	epLatencyNS [numEndpoints]atomic.Int64
	epCompleted [numEndpoints]atomic.Uint64

	// tel is nil when Options.DisableTelemetry is set; obsReg always
	// exists (counter-only collectors still render).
	tel    *telemetry
	obsReg *obs.Registry

	// streamAddr is the advertised stream listener (SetStreamAddr),
	// published on /healthz so routers can discover the transport.
	streamAddr atomic.Pointer[string]
}

// New starts a service and its worker pool. Close releases the workers.
func New(opts Options) *Service {
	o := opts.withDefaults()
	s := &Service{
		opts:   o,
		reg:    o.Registry,
		cache:  NewCache(o.CacheEntries),
		start:  time.Now(),
		jobs:   make(chan *job, o.QueueDepth),
		quit:   make(chan struct{}),
		obsReg: obs.NewRegistry(),
	}
	if !o.DisableTelemetry {
		s.tel = newTelemetry(o)
	}
	s.registerCollectors()
	s.wg.Add(o.Workers)
	for i := 0; i < o.Workers; i++ {
		go s.worker()
	}
	return s
}

// Registry exposes the routing registry for publishing models.
func (s *Service) Registry() *Registry { return s.reg }

// Close shuts the worker pool down. In-flight requests finish; new
// Estimate calls fail with ErrClosed.
func (s *Service) Close() {
	s.once.Do(func() { close(s.quit) })
	s.wg.Wait()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			// Drain jobs that were queued before shutdown so their
			// callers get responses rather than ErrClosed.
			for {
				select {
				case j := <-s.jobs:
					s.runJob(j)
				default:
					return
				}
			}
		case j := <-s.jobs:
			s.runJob(j)
		}
	}
}

func (s *Service) runJob(j *job) {
	// A request whose deadline fired while queued is dead; skip the
	// model evaluation, the waiter is already gone.
	if j.ctx.Err() != nil {
		return
	}
	tel := s.tel
	if tel != nil && !j.enq.IsZero() {
		tel.rec(j.ep, obs.StageQueue, time.Since(j.enq), j.tr)
	}
	if j.plan != nil {
		if tel == nil {
			j.out <- s.predict(j.models, j.plan)
			return
		}
		start := time.Now()
		resp := s.predict(j.models, j.plan)
		// The single path interleaves per-node cache probes with model
		// evaluation, so predict covers both; timing each probe would
		// double the hot path's clock reads for sub-microsecond spans.
		tel.rec(j.ep, obs.StagePredict, time.Since(start), j.tr)
		j.out <- resp
		return
	}
	if j.sout != nil {
		if tel == nil {
			resp, _ := s.predictStream(j.models, j.plans)
			j.sout <- resp
			return
		}
		start := time.Now()
		resp, probe := s.predictStream(j.models, j.plans)
		total := time.Since(start)
		tel.rec(j.ep, obs.StageCacheProbe, probe, j.tr)
		tel.rec(j.ep, obs.StagePredict, total-probe, j.tr)
		j.sout <- resp
		return
	}
	if tel == nil {
		resp, _ := s.predictBatch(j.models, j.plans)
		j.bout <- resp
		return
	}
	start := time.Now()
	resp, probe := s.predictBatch(j.models, j.plans)
	total := time.Since(start)
	tel.rec(j.ep, obs.StageCacheProbe, probe, j.tr)
	tel.rec(j.ep, obs.StagePredict, total-probe, j.tr)
	j.bout <- resp
}

// Estimate runs one request through the pool and returns predictions at
// query, pipeline and operator granularity — for one resource or, when
// the request names several, for all of them from a single
// feature-extraction pass.
func (s *Service) Estimate(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	s.requests.Add(1)
	s.epRequests[epEstimate].Add(1)
	resp, err := s.estimate(ctx, req)
	if err != nil {
		s.failures.Add(1)
		s.epFailures[epEstimate].Add(1)
		return nil, err
	}
	d := time.Since(start)
	s.latencyNS.Add(int64(d))
	s.completed.Add(1)
	s.epLatencyNS[epEstimate].Add(int64(d))
	s.epCompleted[epEstimate].Add(1)
	if s.tel != nil {
		s.tel.total[epEstimate].Observe(d)
	}
	return resp, nil
}

func (s *Service) estimate(ctx context.Context, req Request) (*Response, error) {
	if req.Plan == nil || req.Plan.Root == nil {
		return nil, fmt.Errorf("serve: request without plan")
	}
	if err := req.Plan.Validate(); err != nil {
		return nil, err
	}
	kinds, err := normalizeResources(req.Resource, req.Resources)
	if err != nil {
		return nil, err
	}
	models, err := s.lookupModels(req.Schema, kinds)
	if err != nil {
		return nil, err
	}

	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// Refuse new work after Close. The check is advisory (Close may race
	// with the enqueue below); the exiting workers' drain loop plus the
	// request deadline bound what happens to stragglers.
	select {
	case <-s.quit:
		return nil, ErrClosed
	default:
	}

	j := &job{ctx: ctx, models: models, plan: req.Plan, out: make(chan *Response, 1), ep: epEstimate}
	if s.tel != nil {
		j.tr = obs.TraceFrom(ctx)
		j.enq = time.Now()
	}
	select {
	case s.jobs <- j:
	case <-s.quit:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: queue wait: %w", ctx.Err())
	}
	var resp *Response
	select {
	case resp = <-j.out:
	case <-s.quit:
		// Shutdown raced with a completed or draining prediction;
		// prefer delivering the result over reporting ErrClosed.
		select {
		case resp = <-j.out:
		case <-ctx.Done():
			return nil, ErrClosed
		}
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: estimation: %w", ctx.Err())
	}
	if req.Explain {
		// Decompose against the same model version the pool served.
		// core's Explain replays the exact PredictVector accumulation, so
		// the explain total and the served total agree bit for bit.
		resp.Explain = explainInfo(models.primary().Est.Explain(req.Plan))
	}
	return resp, nil
}

// EstimateBatch runs a whole plan batch through the pool as one job and
// returns per-plan predictions, parallel to req.Plans. Per-operator
// values are exactly what sequential Estimate calls against the same
// model versions would produce (the batched tree layout is bit-identical
// to the pointer walk, and cached values are shared between the two
// paths); only the throughput differs.
func (s *Service) EstimateBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	start := time.Now()
	s.requests.Add(1)
	s.batchRequests.Add(1)
	s.epRequests[epBatch].Add(1)
	resp, err := s.estimateBatch(ctx, req)
	if err != nil {
		s.failures.Add(1)
		s.epFailures[epBatch].Add(1)
		return nil, err
	}
	s.batchPlans.Add(uint64(len(req.Plans)))
	d := time.Since(start)
	s.latencyNS.Add(int64(d))
	s.completed.Add(1)
	s.epLatencyNS[epBatch].Add(int64(d))
	s.epCompleted[epBatch].Add(1)
	if s.tel != nil {
		s.tel.total[epBatch].Observe(d)
	}
	return resp, nil
}

func (s *Service) estimateBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	if len(req.Plans) == 0 {
		return nil, fmt.Errorf("serve: batch request without plans")
	}
	for i, p := range req.Plans {
		if p == nil || p.Root == nil {
			return nil, fmt.Errorf("serve: batch plan %d missing", i)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("serve: batch plan %d: %w", i, err)
		}
	}
	kinds, err := normalizeResources(req.Resource, req.Resources)
	if err != nil {
		return nil, err
	}
	models, err := s.lookupModels(req.Schema, kinds)
	if err != nil {
		return nil, err
	}

	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	select {
	case <-s.quit:
		return nil, ErrClosed
	default:
	}

	j := &job{ctx: ctx, models: models, plans: req.Plans, bout: make(chan *BatchResponse, 1), ep: epBatch}
	if s.tel != nil {
		j.tr = obs.TraceFrom(ctx)
		j.enq = time.Now()
	}
	select {
	case s.jobs <- j:
	case <-s.quit:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: queue wait: %w", ctx.Err())
	}
	select {
	case resp := <-j.bout:
		return resp, nil
	case <-s.quit:
		select {
		case resp := <-j.bout:
			return resp, nil
		case <-ctx.Done():
			return nil, ErrClosed
		}
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: estimation: %w", ctx.Err())
	}
}

// batchPredictions is the shared batched compute both multi-plan entry
// points ride: one flat feature extraction over every node of every
// plan, one multi-get against the sharded cache, one
// EstimatorSet.PredictAllBatch over the misses (grouped by operator
// onto the compiled tree slabs, fanned out across the requested
// resources), one multi-put back. Returns the per-node predictions
// (flat, plan pi's nodes at vals[offs[pi]:offs[pi+1]]), the per-node
// hit flags, the total hit count, and the time spent in the cache
// multi-get — the batch path's cache_probe stage (two clock reads per
// whole batch, negligible even with telemetry disabled).
func (s *Service) batchPredictions(ms *modelSet, plans []*plan.Plan) (vals []plan.Resources, offs []int, hit []bool, hits int, probe time.Duration) {
	set := ms.est
	vecs, offs := features.ExtractPlans(plans, set.Mode)
	kinds := make([]plan.OpKind, len(vecs))
	keys := make([]cacheKey, len(vecs))
	for pi, p := range plans {
		j := offs[pi]
		p.Walk(func(n *plan.Node) {
			kinds[j] = n.Kind
			keys[j] = cacheKey{versions: ms.versions, op: n.Kind, vec: vecs[j]}
			j++
		})
	}

	vals = make([]plan.Resources, len(vecs))
	hit = make([]bool, len(vecs))
	probeStart := time.Now()
	hits, shards := s.cache.GetMulti(keys, vals, hit)
	probe = time.Since(probeStart)

	if miss := len(vecs) - hits; miss > 0 {
		// Deduplicate identical (versions, op, vector) misses before
		// predicting: production batches repeat operator shapes (the
		// same scans under different queries), and with caching
		// disabled this is the only thing collapsing them. Predictions
		// are pure functions of the key, so scattering one result to
		// every duplicate is exact.
		uniq := make(map[cacheKey]int, miss)
		missKinds := make([]plan.OpKind, 0, miss)
		missVecs := make([]features.Vector, 0, miss)
		slot := make([]int, 0, miss) // per input index: unique slot
		idxOf := make([]int, 0, miss)
		for i := range vecs {
			if hit[i] {
				continue
			}
			u, ok := uniq[keys[i]]
			if !ok {
				u = len(missKinds)
				uniq[keys[i]] = u
				missKinds = append(missKinds, kinds[i])
				missVecs = append(missVecs, vecs[i])
			}
			slot = append(slot, u)
			idxOf = append(idxOf, i)
		}
		missVals := set.PredictAllBatch(missKinds, missVecs, nil)
		for k, i := range idxOf {
			vals[i] = missVals[slot[k]]
		}
		s.cache.PutMulti(keys, vals, hit, shards)
	}
	return vals, offs, hit, hits, probe
}

// EstimateStream runs one coalesced micro-batch from the streaming
// transport through the pool and returns per-plan Responses, parallel
// to req.Plans. Each Response is exactly what a sequential Estimate
// call against the same model versions would produce — the stream
// transport's whole point is that clients keep their single-estimate
// call pattern while the server amortizes queueing, extraction and
// tree walks across every connection's in-flight request.
//
// coalesceWait is how long the batch's oldest member sat in the
// micro-batcher before dispatch; it is recorded as the streaming
// endpoint's coalesce_wait stage so the time bound's cost is visible
// next to the latency it buys.
func (s *Service) EstimateStream(ctx context.Context, req BatchRequest, coalesceWait time.Duration) ([]*Response, error) {
	start := time.Now()
	s.requests.Add(1)
	s.epRequests[epStream].Add(1)
	if s.tel != nil && coalesceWait > 0 {
		s.tel.rec(epStream, obs.StageCoalesce, coalesceWait, nil)
	}
	resp, err := s.estimateStream(ctx, req)
	if err != nil {
		s.failures.Add(1)
		s.epFailures[epStream].Add(1)
		return nil, err
	}
	d := time.Since(start)
	s.latencyNS.Add(int64(d))
	s.completed.Add(1)
	s.epLatencyNS[epStream].Add(int64(d))
	s.epCompleted[epStream].Add(1)
	if s.tel != nil {
		s.tel.total[epStream].Observe(d)
	}
	return resp, nil
}

func (s *Service) estimateStream(ctx context.Context, req BatchRequest) ([]*Response, error) {
	if len(req.Plans) == 0 {
		return nil, fmt.Errorf("serve: batch request without plans")
	}
	for i, p := range req.Plans {
		if p == nil || p.Root == nil {
			return nil, fmt.Errorf("serve: batch plan %d missing", i)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("serve: batch plan %d: %w", i, err)
		}
	}
	kinds, err := normalizeResources(req.Resource, req.Resources)
	if err != nil {
		return nil, err
	}
	models, err := s.lookupModels(req.Schema, kinds)
	if err != nil {
		return nil, err
	}

	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	select {
	case <-s.quit:
		return nil, ErrClosed
	default:
	}

	j := &job{ctx: ctx, models: models, plans: req.Plans, sout: make(chan []*Response, 1), ep: epStream}
	if s.tel != nil {
		j.enq = time.Now()
	}
	select {
	case s.jobs <- j:
	case <-s.quit:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: queue wait: %w", ctx.Err())
	}
	select {
	case resp := <-j.sout:
		return resp, nil
	case <-s.quit:
		select {
		case resp := <-j.sout:
			return resp, nil
		case <-ctx.Done():
			return nil, ErrClosed
		}
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: estimation: %w", ctx.Err())
	}
}

// predictBatch is the batched analogue of predict: the shared
// batchPredictions compute assembled into one BatchResponse with
// batch-level cache counters.
func (s *Service) predictBatch(ms *modelSet, plans []*plan.Plan) (*BatchResponse, time.Duration) {
	vals, offs, _, hits, probe := s.batchPredictions(ms, plans)
	nFlat := offs[len(plans)]
	primary := ms.kinds[0]
	multi := ms.multi()
	nk := len(ms.kinds)
	resp := &BatchResponse{
		Model:       ms.primary().Info,
		Plans:       make([]PlanEstimate, len(plans)),
		CacheHits:   hits,
		CacheMisses: nFlat - hits,
	}
	if multi {
		resp.Models = ms.infos()
		resp.Resources = ms.wireNames()
	}
	for pi, p := range plans {
		nodes := p.Nodes()
		pipes := p.Pipelines()
		pe := PlanEstimate{Operators: make([]OperatorEstimate, len(nodes))}
		// One backing slice per plan holds every per-resource list of
		// the response (operators, pipelines, totals); sub-slicing it is
		// what keeps the multi-resource fan-out allocation-flat. Sized
		// exactly, so appends never reallocate out from under the
		// sub-slices already handed out.
		var backing []float64
		if multi {
			backing = make([]float64, 0, (len(nodes)+len(pipes)+1)*nk)
		}
		perNode := make(map[*plan.Node]plan.Resources, len(nodes))
		var total plan.Resources
		for i, n := range nodes {
			v := vals[offs[pi]+i]
			perNode[n] = v
			pe.Operators[i] = OperatorEstimate{ID: n.ID, Kind: n.Kind.String(), Estimate: v.Get(primary)}
			if multi {
				backing = ms.appendValues(backing, v)
				pe.Operators[i].Estimates = backing[len(backing)-nk : len(backing) : len(backing)]
			}
			total.Add(v)
		}
		pe.Total = total.Get(primary)
		if multi {
			backing = ms.appendValues(backing, total)
			pe.Totals = backing[len(backing)-nk : len(backing) : len(backing)]
		}
		for _, pl := range pipes {
			ppe := PipelineEstimate{ID: pl.ID, Operators: make([]int, 0, len(pl.Nodes))}
			var ptotal plan.Resources
			for _, n := range pl.Nodes {
				ptotal.Add(perNode[n])
				ppe.Operators = append(ppe.Operators, n.ID)
			}
			ppe.Estimate = ptotal.Get(primary)
			if multi {
				backing = ms.appendValues(backing, ptotal)
				ppe.Estimates = backing[len(backing)-nk : len(backing) : len(backing)]
			}
			pe.Pipelines = append(pe.Pipelines, ppe)
		}
		resp.Plans[pi] = pe
	}
	return resp, probe
}

// predictStream is the streaming transport's fan-in: the shared
// batchPredictions compute, unbundled into one *Response per plan —
// each carrying the full single-estimate wire shape (model header,
// per-plan cache counters) so the transport can answer every coalesced
// client exactly as POST /estimate would have.
func (s *Service) predictStream(ms *modelSet, plans []*plan.Plan) ([]*Response, time.Duration) {
	vals, offs, hit, _, probe := s.batchPredictions(ms, plans)
	out := make([]*Response, len(plans))
	for pi, p := range plans {
		planHits := 0
		for _, h := range hit[offs[pi]:offs[pi+1]] {
			if h {
				planHits++
			}
		}
		out[pi] = ms.assembleResponse(p, vals[offs[pi]:offs[pi+1]], planHits)
	}
	return out, probe
}

// assembleResponse builds one plan's Response from its per-node
// predictions — the assembly half of predict, identical field for
// field. vals is the plan's nodes in Walk order; hits is the plan's
// cache-hit count (misses are the remainder). Per-operator values are
// bit-identical to the single path's: both read the same cached or
// batch-predicted plan.Resources, and the batched tree layout is
// bit-identical to the pointer walk.
func (ms *modelSet) assembleResponse(p *plan.Plan, vals []plan.Resources, hits int) *Response {
	nodes := p.Nodes()
	pipes := p.Pipelines()
	primary := ms.kinds[0]
	multi := ms.multi()
	nk := len(ms.kinds)
	resp := &Response{
		Model:       ms.primary().Info,
		Operators:   make([]OperatorEstimate, len(nodes)),
		CacheHits:   hits,
		CacheMisses: len(nodes) - hits,
	}
	// See predictBatch for the backing-slice scheme.
	var backing []float64
	if multi {
		resp.Models = ms.infos()
		resp.Resources = ms.wireNames()
		backing = make([]float64, 0, (len(nodes)+len(pipes)+1)*nk)
	}
	perNode := make(map[*plan.Node]plan.Resources, len(nodes))
	var total plan.Resources
	for i, n := range nodes {
		v := vals[i]
		perNode[n] = v
		resp.Operators[i] = OperatorEstimate{ID: n.ID, Kind: n.Kind.String(), Estimate: v.Get(primary)}
		if multi {
			backing = ms.appendValues(backing, v)
			resp.Operators[i].Estimates = backing[len(backing)-nk : len(backing) : len(backing)]
		}
		total.Add(v)
	}
	resp.Total = total.Get(primary)
	if multi {
		backing = ms.appendValues(backing, total)
		resp.Totals = backing[len(backing)-nk : len(backing) : len(backing)]
	}
	for _, pl := range pipes {
		pe := PipelineEstimate{ID: pl.ID, Operators: make([]int, 0, len(pl.Nodes))}
		var ptotal plan.Resources
		for _, n := range pl.Nodes {
			ptotal.Add(perNode[n])
			pe.Operators = append(pe.Operators, n.ID)
		}
		pe.Estimate = ptotal.Get(primary)
		if multi {
			backing = ms.appendValues(backing, ptotal)
			pe.Estimates = backing[len(backing)-nk : len(backing) : len(backing)]
		}
		resp.Pipelines = append(resp.Pipelines, pe)
	}
	return resp
}

// predict computes per-operator predictions (through the cache) and
// aggregates them into pipeline and query totals. Aggregating from the
// same per-node values guarantees the three granularities are mutually
// consistent. On multi-resource requests the plan's features are
// extracted once and fanned out across every requested resource's
// model — the per-resource values are bit-identical to single-resource
// requests against the same model versions.
func (s *Service) predict(ms *modelSet, p *plan.Plan) *Response {
	set := ms.est
	nodes := p.Nodes()
	pipes := p.Pipelines()
	vecs := features.ExtractPlan(p, set.Mode)
	primary := ms.kinds[0]
	multi := ms.multi()
	nk := len(ms.kinds)
	resp := &Response{
		Model:     ms.primary().Info,
		Operators: make([]OperatorEstimate, len(nodes)),
	}
	// See predictBatch for the backing-slice scheme.
	var backing []float64
	if multi {
		resp.Models = ms.infos()
		resp.Resources = ms.wireNames()
		backing = make([]float64, 0, (len(nodes)+len(pipes)+1)*nk)
	}
	perNode := make(map[*plan.Node]plan.Resources, len(nodes))
	var total plan.Resources
	for i, n := range nodes {
		key := cacheKey{versions: ms.versions, op: n.Kind, vec: vecs[i]}
		v, ok := s.cache.Get(key)
		if ok {
			resp.CacheHits++
		} else {
			resp.CacheMisses++
			v = set.PredictAll(n.Kind, &vecs[i])
			s.cache.Put(key, v)
		}
		perNode[n] = v
		resp.Operators[i] = OperatorEstimate{ID: n.ID, Kind: n.Kind.String(), Estimate: v.Get(primary)}
		if multi {
			backing = ms.appendValues(backing, v)
			resp.Operators[i].Estimates = backing[len(backing)-nk : len(backing) : len(backing)]
		}
		total.Add(v)
	}
	resp.Total = total.Get(primary)
	if multi {
		backing = ms.appendValues(backing, total)
		resp.Totals = backing[len(backing)-nk : len(backing) : len(backing)]
	}
	for _, pl := range pipes {
		pe := PipelineEstimate{ID: pl.ID, Operators: make([]int, 0, len(pl.Nodes))}
		var ptotal plan.Resources
		for _, n := range pl.Nodes {
			ptotal.Add(perNode[n])
			pe.Operators = append(pe.Operators, n.ID)
		}
		pe.Estimate = ptotal.Get(primary)
		if multi {
			backing = ms.appendValues(backing, ptotal)
			pe.Estimates = backing[len(backing)-nk : len(backing) : len(backing)]
		}
		resp.Pipelines = append(resp.Pipelines, pe)
	}
	return resp
}

// servedPredictions resolves p's per-operator predictions for one
// resource through the prediction cache — the probes, and on a miss the
// model call and the fill, of a single-resource Estimate of the same
// plan, so observing a plan that was just estimated finds every
// operator cached — and returns them with the version of the model they
// belong to. The zero Served means the route has no model.
func (s *Service) servedPredictions(schema string, resource plan.ResourceKind, p *plan.Plan) feedback.Served {
	m, ok := s.reg.Lookup(schema, resource)
	if !ok {
		return feedback.Served{}
	}
	var versions versionVector
	versions[resource] = m.Info.Version
	vecs := features.ExtractPlan(p, m.Est.Mode)
	preds := make([]float64, 0, len(vecs))
	p.Walk(func(n *plan.Node) {
		i := len(preds)
		key := cacheKey{versions: versions, op: n.Kind, vec: vecs[i]}
		v, ok := s.cache.Get(key)
		if !ok {
			v.Set(resource, m.Est.PredictVector(n.Kind, &vecs[i]))
			s.cache.Put(key, v)
		}
		preds = append(preds, v.Get(resource))
	})
	return feedback.Served{Version: m.Info.Version, Operators: preds}
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() Metrics {
	m := Metrics{
		Requests:      s.requests.Load(),
		Failures:      s.failures.Load(),
		BatchRequests: s.batchRequests.Load(),
		BatchPlans:    s.batchPlans.Load(),
		Workers:       s.opts.Workers,
		Cache:         s.cache.Stats(),
		Models:        s.reg.Models(),
	}
	if s.opts.Feedback != nil {
		m.Feedback = s.opts.Feedback.Snapshot()
	}
	if n := s.completed.Load(); n > 0 {
		m.AvgLatencyMS = float64(s.latencyNS.Load()) / float64(n) / 1e6
	}
	if m.Requests > 0 {
		m.Endpoints = &EndpointsMetrics{
			Estimate:       s.endpointMetrics(epEstimate),
			EstimateBatch:  s.endpointMetrics(epBatch),
			EstimateStream: s.endpointMetrics(epStream),
		}
	}
	return m
}

func (s *Service) endpointMetrics(ep int) EndpointMetrics {
	em := EndpointMetrics{
		Requests: s.epRequests[ep].Load(),
		Failures: s.epFailures[ep].Load(),
	}
	if n := s.epCompleted[ep].Load(); n > 0 {
		em.AvgLatencyMS = float64(s.epLatencyNS[ep].Load()) / float64(n) / 1e6
	}
	return em
}

// Feedback returns the attached feedback loop, or nil.
func (s *Service) Feedback() *feedback.Loop { return s.opts.Feedback }
