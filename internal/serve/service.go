package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/feedback"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/respcache"
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
	// shards). 0 selects the default (65536); negative disables caching,
	// the response cache's with it.
	CacheEntries int
	// Workers bounds how many estimate requests compute at once; 0
	// selects GOMAXPROCS. A request computes on its caller's goroutine
	// once it holds one of Workers slots, so a traffic burst degrades
	// into callers waiting for a slot (bounded by their deadlines)
	// instead of every request contending for the CPUs at once. POST
	// /observe's scoring and Explain's decomposition run outside the
	// bound.
	Workers int
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
	// (cmd/resserve's run wires that up). The service does not
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
	// evaluation pass, after the compute slot is given back; off by
	// default.
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
	Model     ModelInfo   `json:"model"`
	Models    []ModelInfo `json:"models,omitempty"`
	Resources []string    `json:"resources,omitempty"`
	// PlanEstimate is the plan's Total, Totals, Operators and Pipelines,
	// at this position on the wire.
	PlanEstimate
	// CacheHits and CacheMisses count the plan's operators the
	// prediction cache did and did not answer. Operators that repeat
	// within one request are probed together, so on a cold cache every
	// copy counts as a miss (and the model is asked once).
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Explain carries the per-operator prediction decomposition when the
	// request asked for it (Request.Explain); omitted otherwise, keeping
	// the default wire shape unchanged.
	Explain *ExplainInfo `json:"explain,omitempty"`

	versions Versions
}

// Versions returns the registry versions of the models that computed r
// — Model's, and Models' on a multi-resource request, by resource kind.
func (r *Response) Versions() Versions { return r.versions }

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
// whole batch routes to one model version per requested resource,
// computes in one compute slot with one multi-get against the
// prediction cache, and evaluates its cache misses through the
// estimator's batched hot path (core.EstimatorSet.PredictAllBatch) —
// amortizing the slot wait, feature extraction and tree-walk cache
// misses over the batch, and sharing the extraction across resources.
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

// PlanEstimate is one plan's predictions at all three granularities:
// an entry of a batch response, and the body of a Response, which adds
// the model header and the plan's cache counters.
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
// resource, the cache's version vector, the multi-resource estimator
// fan-out built over the models' (shared-mode) estimators, and — on
// multi-resource requests only — the per-resource response header
// every plan of the request shares: the models in request order and
// their wire names, the Resources list every Estimates/Totals list is
// parallel to.
type modelSet struct {
	kinds    []plan.ResourceKind
	models   [plan.NumResources]*Model
	versions Versions
	est      *core.EstimatorSet
	infos    []ModelInfo
	names    []string
}

// primary returns the model the response's top-level fields describe.
func (ms *modelSet) primary() *Model { return ms.models[ms.kinds[0]] }

// multi reports whether the response should carry per-resource fields.
func (ms *modelSet) multi() bool { return len(ms.kinds) > 1 }

// appendValues appends v's components for the requested resources, in
// request order, and returns the grown slice and the list just
// appended — nil on a single-resource request, whose estimates carry
// no per-resource lists. Estimates carve their Estimates and Totals
// lists out of one pre-sized backing slice via this, so a
// multi-resource estimate costs one float allocation per plan, not one
// per operator.
func (ms *modelSet) appendValues(dst []float64, v plan.Resources) (grown, list []float64) {
	if !ms.multi() {
		return dst, nil
	}
	for _, k := range ms.kinds {
		dst = append(dst, v.Get(k))
	}
	return dst, dst[len(dst)-len(ms.kinds) : len(dst) : len(dst)]
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
// builds the shared-extraction estimator fan-out. A single-resource
// request gets the set its model carries, built once at publish.
func (s *Service) lookupModels(schema string, kinds []plan.ResourceKind) (*modelSet, error) {
	var models [plan.NumResources]*Model
	for _, k := range kinds {
		m, ok := s.reg.Lookup(schema, k)
		if !ok {
			return nil, fmt.Errorf("%w: schema %q resource %s", ErrNoModel, schema, k)
		}
		if len(kinds) == 1 && m.one != nil {
			return m.one, nil
		}
		models[k] = m
	}
	ms, err := newModelSet(kinds, &models)
	if errors.Is(err, core.ErrModeMismatch) {
		return nil, fmt.Errorf("%w (schema %q)", ErrModeMismatch, schema)
	}
	return ms, err
}

// newModelSet builds the set that serves kinds from their models.
func newModelSet(kinds []plan.ResourceKind, models *[plan.NumResources]*Model) (*modelSet, error) {
	ms := &modelSet{kinds: kinds, models: *models}
	ests := make([]*core.Estimator, 0, len(kinds))
	for _, k := range kinds {
		ms.versions[k] = models[k].Info.Version
		ests = append(ests, models[k].Est)
	}
	set, err := core.NewEstimatorSet(ests...)
	if err != nil {
		return nil, err
	}
	ms.est = set
	if ms.multi() {
		ms.infos = make([]ModelInfo, len(kinds))
		ms.names = make([]string, len(kinds))
		for i, k := range kinds {
			ms.infos[i] = ms.models[k].Info
			ms.names[i] = k.WireName()
		}
	}
	return ms, nil
}

// Service is the concurrent estimation front end: model lookup through
// the registry, memoized per-operator prediction through the cache, and
// computation on the caller's goroutine, at most Options.Workers at
// once, under per-request deadlines.
type Service struct {
	opts  Options
	reg   *Registry
	cache *Cache
	// replay is the replica's response cache: whole single-plan answers
	// keyed by the exact request body, each stamped with the registry
	// versions that computed it. One per service, asked by both byte-in,
	// byte-out entry points — POST /estimate and the stream listener's
	// estimate frame — through Replay and FileReplay; nil, off, exactly
	// when the prediction cache is. serving is its liveness question,
	// bound once so a hit allocates nothing.
	replay  *respcache.Cache[Versions]
	serving func(schema string, v Versions) bool
	start   time.Time

	// slots holds one token per request computing; its capacity is
	// Options.Workers. waiting counts the callers blocked on a full
	// slots (resserve_queue_depth). quit is closed by Close.
	slots   chan struct{}
	waiting atomic.Int64
	quit    chan struct{}
	once    sync.Once

	batchPlans atomic.Uint64

	// POST /estimate requests answered by Replay, and sent on to be
	// decoded; the stream listener counts its own frames.
	replayHits   atomic.Uint64
	replayMisses atomic.Uint64

	// Per-endpoint counters (indexes epEstimate/epBatch/epStream), so
	// /metrics can report honest averages per endpoint instead of
	// blending single, batch and stream-dispatch populations. The
	// lifetime totals are their sums.
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

// New builds a service. It starts no goroutine: every request computes
// on its caller's.
func New(opts Options) *Service {
	o := opts.withDefaults()
	s := &Service{
		opts:   o,
		reg:    o.Registry,
		cache:  NewCache(o.CacheEntries),
		start:  time.Now(),
		slots:  make(chan struct{}, o.Workers),
		quit:   make(chan struct{}),
		obsReg: obs.NewRegistry(),
	}
	s.serving = s.reg.Serving
	if s.cache != nil {
		s.replay = respcache.New[Versions](respcache.Entries)
	}
	if !o.DisableTelemetry {
		s.tel = newTelemetry(o)
	}
	s.registerCollectors()
	return s
}

// Registry exposes the routing registry for publishing models.
func (s *Service) Registry() *Registry { return s.reg }

// Caching reports whether the service memoizes predictions, and with
// them whole responses (Options.CacheEntries): whether a transport that
// will FileReplay an answer should keep a copy of its request's bytes.
func (s *Service) Caching() bool { return s.cache != nil }

// Replay returns the wire bytes that answer body — a single-plan
// estimate request exactly as a transport received it, nothing of it
// parsed — when those exact bytes were answered before, among the last
// respcache.Entries distinct bodies, by model versions that all still
// serve the request's schema. The answer is the computed one with every
// operator counted a prediction-cache hit, which is what a
// recomputation would report. body is only read, and only during the
// call; the result is shared and must not be written to. A body's
// timeout_ms does not stop a replay: the answer is already here.
func (s *Service) Replay(body []byte) ([]byte, bool) {
	return s.replay.Get(body, s.serving)
}

// FileReplay files what a repeat of the request key — a copy of its
// bytes — for schema reads from now on: wire, resp's encoding, under the
// versions that computed resp, unless a rollout has overtaken them (the
// one fill rule, respcache.Put's). The cache keeps wire; the caller may
// still read it. Only a computed 200 answer without an Explain is ever
// filed — a caller files nothing else.
func (s *Service) FileReplay(key, schema string, resp *Response, wire []byte) {
	if s.replay == nil {
		return
	}
	if replay := ReplayWire(wire, resp); replay != nil {
		s.replay.Put(key, schema, resp.Versions(), replay, s.serving)
	}
}

// Close shuts the service down: Estimate calls from now on, and those
// still waiting for a slot, fail with ErrClosed; one already computing
// finishes on its caller's goroutine. Safe to call more than once.
func (s *Service) Close() {
	s.once.Do(func() { close(s.quit) })
}

// run is the one way to compute: validate the plans, resolve the
// request's models, then on the caller's goroutine take one of the
// Workers slots, compute every plan's Response and give the slot back,
// all within the request's deadline. The model set comes back with the
// responses for Explain, which must decompose against the version that
// served.
func (s *Service) run(ctx context.Context, ep int, req BatchRequest) (*modelSet, []Response, error) {
	if len(req.Plans) == 0 {
		return nil, nil, fmt.Errorf("serve: request without plans")
	}
	for i, p := range req.Plans {
		if p == nil || p.Root == nil {
			return nil, nil, fmt.Errorf("serve: plan %d missing", i)
		}
		if err := p.Validate(); err != nil {
			return nil, nil, fmt.Errorf("serve: plan %d: %w", i, err)
		}
	}
	kinds, err := normalizeResources(req.Resource, req.Resources)
	if err != nil {
		return nil, nil, err
	}
	models, err := s.lookupModels(req.Schema, kinds)
	if err != nil {
		return nil, nil, err
	}

	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	enq := time.Now()
	deadline := enq.Add(timeout)
	if err := s.acquire(ctx, deadline); err != nil {
		return nil, nil, err
	}
	defer func() { <-s.slots }() // deferred, so a panic net/http recovers from cannot keep the slot
	tel := s.tel
	var start time.Time
	var tr *obs.Trace
	if tel != nil {
		start, tr = time.Now(), obs.TraceFrom(ctx)
		tel.rec(ep, obs.StageQueue, start.Sub(enq), tr)
	}
	res, probe := s.estimatePlans(models, req.Plans, tel != nil)
	if tel != nil {
		tel.rec(ep, obs.StageCacheProbe, probe, tr)
		tel.rec(ep, obs.StagePredict, time.Since(start)-probe, tr)
	}
	// Past its deadline a request is an error, even one whose deadline
	// passed while it computed.
	err = ctx.Err()
	if err == nil && !time.Now().Before(deadline) {
		err = context.DeadlineExceeded
	}
	if err != nil {
		return nil, nil, fmt.Errorf("serve: estimation: %w", err)
	}
	return models, res, nil
}

// acquire takes a compute slot for the calling request. It refuses one
// that arrives after Close or after its caller gave up; while all
// Workers slots are taken it waits, counted in waiting, until one
// frees, Close is called or the deadline passes.
func (s *Service) acquire(ctx context.Context, deadline time.Time) error {
	select {
	case <-s.quit:
		return ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("serve: queue wait: %w", err)
	}
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	s.waiting.Add(1)
	defer s.waiting.Add(-1)
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-s.quit:
		return ErrClosed
	case <-ctx.Done():
		return fmt.Errorf("serve: queue wait: %w", ctx.Err())
	}
}

// begin counts one request arriving on ep and starts its latency
// clock; finish closes it as a failure or as one more latency sample,
// and returns the sample. Every entry point brackets its work with the
// pair.
func (s *Service) begin(ep int) time.Time {
	s.epRequests[ep].Add(1)
	return time.Now()
}

func (s *Service) finish(ep int, start time.Time, err error) time.Duration {
	if err != nil {
		s.epFailures[ep].Add(1)
		return 0
	}
	d := time.Since(start)
	s.epLatencyNS[ep].Add(int64(d))
	s.epCompleted[ep].Add(1)
	if s.tel != nil {
		s.tel.total[ep].Observe(d)
	}
	return d
}

// Estimate computes one request on the calling goroutine, once it
// holds a compute slot, and returns predictions at query, pipeline and
// operator granularity — for one resource or, when the request names
// several, for all of them from a single feature-extraction pass. It
// fails with ErrClosed after Close, and with an error wrapping
// context.DeadlineExceeded once the request's deadline has passed —
// also when it passed while the request computed — or context.Canceled
// once ctx is.
func (s *Service) Estimate(ctx context.Context, req Request) (*Response, error) {
	start := s.begin(epEstimate)
	ms, resps, err := s.run(ctx, epEstimate, BatchRequest{
		Schema:    req.Schema,
		Resource:  req.Resource,
		Resources: req.Resources,
		Plans:     []*plan.Plan{req.Plan},
		Timeout:   req.Timeout,
	})
	var resp *Response
	if err == nil {
		resp = &resps[0]
		if req.Explain {
			// Decompose against the same model version that served.
			// core's Explain replays the exact PredictVector accumulation, so
			// the explain total and the served total agree bit for bit.
			resp.Explain = explainInfo(ms.primary().Est.Explain(req.Plan))
		}
	}
	s.finish(epEstimate, start, err)
	return resp, err
}

// EstimateBatch computes a whole plan batch in one compute slot and
// returns per-plan predictions, parallel to req.Plans. Per-plan values
// are exactly what sequential Estimate calls against the same model
// versions would produce — it is the same computation, with more plans
// in it; only the throughput differs. It fails as Estimate does.
func (s *Service) EstimateBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	start := s.begin(epBatch)
	_, resps, err := s.run(ctx, epBatch, req)
	s.finish(epBatch, start, err)
	if err != nil {
		return nil, err
	}
	s.batchPlans.Add(uint64(len(req.Plans)))
	first := &resps[0]
	resp := &BatchResponse{
		Model:     first.Model,
		Models:    first.Models,
		Resources: first.Resources,
		Plans:     make([]PlanEstimate, len(resps)),
	}
	for pi := range resps {
		resp.Plans[pi] = resps[pi].PlanEstimate
		resp.CacheHits += resps[pi].CacheHits
		resp.CacheMisses += resps[pi].CacheMisses
	}
	return resp, nil
}

// EstimateStream computes one coalesced micro-batch from the streaming
// transport in one compute slot and returns per-plan Responses,
// parallel to req.Plans. Each Response is exactly what a sequential
// Estimate call against the same model versions would produce — the
// stream transport's whole point is that clients keep their
// single-estimate call pattern while the server amortizes the slot
// wait, extraction and tree walks across every connection's in-flight
// request. It fails as Estimate does.
//
// coalesceWait is how long the batch's oldest member sat in the
// micro-batcher before dispatch; it is recorded as the streaming
// endpoint's coalesce_wait stage so the time bound's cost is visible
// next to the latency it buys.
func (s *Service) EstimateStream(ctx context.Context, req BatchRequest, coalesceWait time.Duration) ([]*Response, error) {
	start := s.begin(epStream)
	if s.tel != nil && coalesceWait > 0 {
		s.tel.rec(epStream, obs.StageCoalesce, coalesceWait, nil)
	}
	_, resps, err := s.run(ctx, epStream, req)
	s.finish(epStream, start, err)
	if err != nil {
		return nil, err
	}
	out := make([]*Response, len(resps))
	for pi := range resps {
		out[pi] = &resps[pi]
	}
	return out, nil
}

// estimatePlans is what a request does in its compute slot: the
// batched compute, then per plan the assembly of its estimate under the
// shared model header, with the count of its operators the cache
// answered. With timed set it also returns the time spent in the cache
// multi-get, the request's cache_probe stage.
func (s *Service) estimatePlans(ms *modelSet, plans []*plan.Plan, timed bool) ([]Response, time.Duration) {
	sc := getScratch()
	defer putScratch(sc)
	probeTime := s.batchPredictions(ms, plans, sc, timed)
	ps, offs := sc.ps, sc.offs
	out := make([]Response, len(plans))
	for pi, p := range plans {
		own := ps[offs[pi]:offs[pi+1]]
		hits := 0
		for i := range own {
			if own[i].hit {
				hits++
			}
		}
		out[pi] = Response{
			Model:        ms.primary().Info,
			Models:       ms.infos,
			Resources:    ms.names,
			PlanEstimate: ms.assemble(p, own),
			CacheHits:    hits,
			CacheMisses:  len(own) - hits,
			versions:     ms.versions,
		}
	}
	return out, probeTime
}

// scratch is one computation's per-operator working state: the probes
// (one per node of every plan, flat, in preorder, plan pi's at
// ps[offs[pi]:offs[pi+1]]), the batch of distinct misses handed to the
// model, and servedPredictions' per-operator values. Every computed
// path takes one from scratchPool and hands it back with putScratch
// once nothing reads it — estimatePlans after assembly, POST /observe
// after the feedback loop has ingested — so a warm service allocates
// none of it per request.
type scratch struct {
	ps        []probe
	offs      []int
	seen      map[uint64]int32
	missKinds []plan.OpKind
	missVecs  []features.Vector
	missVals  []plan.Resources
	preds     []float64
	order     []int32 // the cache multi-get's shard grouping
}

var scratchPool = sync.Pool{New: func() any { return &scratch{seen: make(map[uint64]int32)} }}

// maxPooledProbes bounds the scratch the pool keeps: one a large batch
// grew past it (about 1 MiB of probes) is dropped, not kept.
const maxPooledProbes = 4096

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch hands sc back to the pool, first clearing its probes' node
// pointers so a pooled scratch never keeps a request's plan alive.
func putScratch(sc *scratch) {
	if cap(sc.ps) > maxPooledProbes {
		return
	}
	for i := range sc.ps {
		sc.ps[i].node = nil
	}
	scratchPool.Put(sc)
}

// appendProbes appends a probe for n and one for every node below it,
// in preorder: each node's feature vector, cache key and hash are built
// in place in its probe, in the one pass over the plan the compute
// makes. parent is n's parent, nil at the root.
func appendProbes(ps []probe, n, parent *plan.Node, versions *Versions, mode features.Mode) []probe {
	if n == nil {
		return ps
	}
	ps = append(ps, probe{node: n, key: cacheKey{versions: *versions, op: n.Kind}})
	pr := &ps[len(ps)-1]
	features.ExtractInto(&pr.key.vec, n, parent, mode)
	pr.hash = pr.key.hash()
	for _, c := range n.Children {
		ps = appendProbes(ps, c, n, versions, mode)
	}
	return ps
}

// batchPredictions is the one compute under every estimate and under
// /observe's scoring: one preorder pass over every plan building its
// nodes' probes into sc, one multi-get against the sharded cache, one
// EstimatorSet.PredictAllBatch over the misses (grouped by operator
// onto the compiled tree slabs, fanned out across the requested
// resources), one multi-put back. It leaves the per-node probes in sc,
// each holding its prediction and whether the cache supplied it, and
// with timed set returns the time spent in the cache multi-get.
func (s *Service) batchPredictions(ms *modelSet, plans []*plan.Plan, sc *scratch, timed bool) (probeTime time.Duration) {
	set := ms.est
	ps, offs := sc.ps[:0], sc.offs[:0]
	for _, p := range plans {
		offs = append(offs, len(ps))
		ps = appendProbes(ps, p.Root, nil, &ms.versions, set.Mode)
	}
	sc.ps, sc.offs = ps, append(offs, len(ps))

	var probeStart time.Time
	if timed {
		probeStart = time.Now()
	}
	hits, shards := s.cache.GetMulti(ps, sc.order)
	sc.order = shards.order
	if timed {
		probeTime = time.Since(probeStart)
	}

	if len(ps) > hits {
		// Deduplicate identical (versions, op, vector) misses before
		// predicting: production batches repeat operator shapes (the
		// same scans under different queries), and with caching
		// disabled this is the only thing collapsing them. Predictions
		// are pure functions of the key, so scattering one result to
		// every duplicate is exact. seen maps a hash to a miss holding a
		// slot; a later miss under that hash shares the slot only when
		// the two keys are equal, so keys that collide are each predicted.
		seen := sc.seen
		clear(seen)
		missKinds, missVecs := sc.missKinds[:0], sc.missVecs[:0]
		for i := range ps {
			if ps[i].hit {
				continue
			}
			if j, ok := seen[ps[i].hash]; ok && ps[j].key == ps[i].key {
				ps[i].slot = ps[j].slot
				continue
			}
			seen[ps[i].hash] = int32(i)
			ps[i].slot = int32(len(missKinds))
			missKinds = append(missKinds, ps[i].key.op)
			missVecs = append(missVecs, ps[i].key.vec)
		}
		sc.missKinds, sc.missVecs = missKinds, missVecs
		sc.missVals = slices.Grow(sc.missVals[:0], len(missKinds))[:len(missKinds)]
		missVals := set.PredictAllBatch(missKinds, missVecs, sc.missVals)
		for i := range ps {
			if !ps[i].hit {
				ps[i].val = missVals[ps[i].slot]
			}
		}
		s.cache.PutMulti(ps, shards)
	}
	return probeTime
}

// assemble builds one plan's estimate from its per-node predictions
// (own, in preorder): operators, then pipeline and query totals
// aggregated from the same per-node values, which is what keeps the
// three granularities mutually consistent.
func (ms *modelSet) assemble(p *plan.Plan, own []probe) PlanEstimate {
	// One int slice per plan: each node's pipeline, then the pipelines'
	// operator lists back to back, then where each list ends.
	n := len(own)
	ints := make([]int, 3*n)
	of, np := p.PipelineIDs(ints[:0:n])
	lists, ends := ints[n:2*n], ints[2*n:2*n+np]
	for _, k := range of {
		ends[k]++
	}
	for k, sum := 0, 0; k < np; k++ {
		sum, ends[k] = sum+ends[k], sum
	}
	for j, k := range of { // preorder positions for now, in preorder
		lists[ends[k]] = j
		ends[k]++
	}

	primary := ms.kinds[0]
	pe := PlanEstimate{Operators: make([]OperatorEstimate, n), Pipelines: make([]PipelineEstimate, np)}
	// One backing slice per plan holds every per-resource list of the
	// estimate (operators, pipelines, totals); sub-slicing it is what
	// keeps the multi-resource fan-out allocation-flat. Sized exactly,
	// so appends never reallocate out from under the sub-slices already
	// handed out.
	var backing []float64
	if ms.multi() {
		backing = make([]float64, 0, (n+np+1)*len(ms.kinds))
	}
	var total plan.Resources
	for i := range own {
		nd, v := own[i].node, own[i].val
		op := &pe.Operators[i]
		*op = OperatorEstimate{ID: nd.ID, Kind: nd.Kind.String(), Estimate: v.Get(primary)}
		backing, op.Estimates = ms.appendValues(backing, v)
		total.Add(v)
	}
	pe.Total = total.Get(primary)
	backing, pe.Totals = ms.appendValues(backing, total)
	start := 0
	for k := range pe.Pipelines {
		list := lists[start:ends[k]:ends[k]]
		start = ends[k]
		var ptotal plan.Resources
		for x, j := range list {
			ptotal.Add(own[j].val)
			list[x] = own[j].node.ID
		}
		ppe := &pe.Pipelines[k]
		*ppe = PipelineEstimate{ID: k, Operators: list, Estimate: ptotal.Get(primary)}
		backing, ppe.Estimates = ms.appendValues(backing, ptotal)
	}
	return pe
}

// servedPredictions resolves p's per-operator predictions for one
// resource (kinds is a list of one, as ResolveEstimate returns it)
// through the prediction cache — the compute of a single-resource
// Estimate of the same plan, so observing a plan that was just
// estimated finds every operator cached — and returns them with the
// version of the model they belong to. It runs on the calling
// goroutine without taking a compute slot — POST /observe scores
// outside the Workers bound — and leaves the predictions in sc: the
// caller hands sc back once the feedback loop has read them. The zero
// Served means the route has no model.
func (s *Service) servedPredictions(schema string, kinds []plan.ResourceKind, p *plan.Plan, sc *scratch) feedback.Served {
	ms, err := s.lookupModels(schema, kinds)
	if err != nil {
		return feedback.Served{}
	}
	s.batchPredictions(ms, []*plan.Plan{p}, sc, false)
	preds := sc.preds[:0]
	for i := range sc.ps {
		preds = append(preds, sc.ps[i].val.Get(kinds[0]))
	}
	sc.preds = preds
	return feedback.Served{Version: ms.primary().Info.Version, Operators: preds}
}

// Metrics snapshots the service counters. The totals are the sums of
// the per-endpoint counters, which it carries under Endpoints once
// traffic has flowed.
func (s *Service) Metrics() Metrics {
	m := Metrics{
		BatchPlans: s.batchPlans.Load(),
		Workers:    s.opts.Workers,
		Cache:      s.cache.Stats(),
		Models:     s.reg.Models(),
	}
	if s.opts.Feedback != nil {
		m.Feedback = s.opts.Feedback.Snapshot()
	}
	var eps [numEndpoints]EndpointMetrics
	var latencyNS int64
	var completed uint64
	for ep := range eps {
		n, lat := s.epCompleted[ep].Load(), s.epLatencyNS[ep].Load()
		eps[ep] = EndpointMetrics{
			Requests:     s.epRequests[ep].Load(),
			Failures:     s.epFailures[ep].Load(),
			AvgLatencyMS: avgMS(lat, n),
		}
		m.Requests += eps[ep].Requests
		m.Failures += eps[ep].Failures
		latencyNS += lat
		completed += n
	}
	m.BatchRequests = eps[epBatch].Requests
	m.AvgLatencyMS = avgMS(latencyNS, completed)
	if m.Requests > 0 {
		m.Endpoints = &EndpointsMetrics{
			Estimate:       eps[epEstimate],
			EstimateBatch:  eps[epBatch],
			EstimateStream: eps[epStream],
		}
	}
	return m
}

// avgMS is the mean of n latencies summing to ns, in milliseconds; 0
// for none.
func avgMS(ns int64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e6
}
