package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/feedback"
	"repro/internal/obs"
	"repro/internal/plan"
)

// ParseResource maps the wire resource names to plan.ResourceKind.
// Unknown names yield an error wrapping ErrUnknownResource, which the
// HTTP layer maps to the structured {error, code, plan} envelope with
// code "unknown_resource" (never a bare 400 string).
func ParseResource(s string) (plan.ResourceKind, error) {
	switch s {
	case "", "cpu", "CPU":
		return plan.CPUTime, nil
	case "io", "IO":
		return plan.LogicalIO, nil
	}
	return 0, fmt.Errorf("%w %q (want cpu or io)", ErrUnknownResource, s)
}

// ParseResourceSet maps a list of wire resource names to kinds,
// preserving order and dropping duplicates. "all" anywhere in the list
// selects every resource kind.
func ParseResourceSet(names []string) ([]plan.ResourceKind, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("%w: empty resource set", ErrUnknownResource)
	}
	kinds := make([]plan.ResourceKind, 0, len(names))
	var seen [plan.NumResources]bool
	for _, name := range names {
		if name == "all" {
			return plan.ResourceKinds(), nil
		}
		k, err := ParseResource(name)
		if err != nil {
			return nil, err
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		kinds = append(kinds, k)
	}
	return kinds, nil
}

type publishRequestJSON struct {
	// Schema to publish under ("" = wildcard fallback).
	Schema string `json:"schema,omitempty"`
	// Path of a model file saved by core (*Estimator).Save, relative
	// to the service's configured ModelDir.
	Path string `json:"path"`
}

// Request body bounds, the same on every surface: MaxEstimateBody for
// POST /estimate and /observe (so a stream frame's body too),
// MaxBatchBody for /estimate/batch and /observe/segment, MaxPublishBody
// for /models and /models/rollback; the router reads each under the
// bound its replicas apply. A plan tree is small (operators, not data),
// and the publish body is just a schema and a path. Batches get a
// larger envelope plus a plan-count cap so a single request cannot hold
// a compute slot for unbounded time.
const (
	MaxEstimateBody = 8 << 20
	MaxBatchBody    = 64 << 20
	MaxPublishBody  = 4 << 10
	maxBatchPlans   = 1024
)

// Handler returns the service's HTTP API:
//
//	POST /estimate         {schema, resource | resources, timeout_ms, plan}
//	                       → Response. resources is ["cpu","io"] or "all":
//	                       features are extracted once and fanned out
//	                       across every named resource's model; the
//	                       response carries per-resource totals/estimates.
//	                       Single-resource requests keep the exact
//	                       pre-multi-resource wire shape. ?explain=1
//	                       attaches the per-operator prediction
//	                       decomposition (model selection, out-of-range
//	                       ratios, per-tree margins) to the response.
//	POST /estimate/batch   {schema, resource | resources, timeout_ms,
//	                       plans: [plan...]}
//	                       → BatchResponse: one model lookup, one compute
//	                       slot and one cache multi-get for the whole
//	                       batch (≤ 1024 plans)
//	POST /observe          {schema, resource, model_version, predicted, plan}
//	                       → feeds the online feedback loop (403 when no
//	                       loop is attached); the plan must carry actuals
//	GET  /models           → []ModelInfo
//	POST /models           {schema, path} → ModelInfo (hot-swaps the model)
//	POST /models/rollback  {schema, resource} → ModelInfo (reverts to the
//	                       previously published version)
//	GET  /metrics          → Metrics JSON (incl. per-model feedback error
//	                       gauges and per-endpoint latency averages); with
//	                       Accept: text/plain or ?format=prometheus,
//	                       Prometheus text exposition instead (per-stage
//	                       latency summaries, per-shard cache counters,
//	                       queue depth, feedback and store gauges)
//	POST /observe/segment  raw CRC-framed observation records (the
//	                       feedback log's segment codec) → bulk ingest
//	                       into the feedback loop; how fleet replicas
//	                       forward observation-log segments to the
//	                       designated retrainer
//	GET  /healthz          → 200 + replica identity (model version
//	                       vector, store snapshot checksum, advertised
//	                       stream address, build info) once at least
//	                       one model is published
//
// Failures return the structured Error envelope: a message, a
// stable machine-readable code, the request's X-Request-ID, and — on
// batch requests — the index of the offending plan.
//
// Every request carries an X-Request-ID: the client's, or a generated
// one. The ID is echoed on the response (header and error envelope) and
// stamped on every log record about the request, so one grep joins a
// client-observed failure to the server's view of it.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", s.handleEstimate)
	mux.HandleFunc("POST /estimate/batch", s.handleEstimateBatch)
	mux.HandleFunc("POST /observe", s.handleObserve)
	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, http.StatusOK, s.reg.Models())
	})
	mux.HandleFunc("POST /models", s.handlePublish)
	mux.HandleFunc("POST /models/rollback", s.handleRollback)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		WriteMetrics(w, r, s.obsReg, func() any { return s.Metrics() })
	})
	mux.HandleFunc("POST /observe/segment", s.handleObserveSegment)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return WithRequestID(mux)
}

// healthJSON is the GET /healthz body: liveness plus the replica's
// identity — the model version vector, its folded checksum, the
// advertised stream listener and the build — so a router or load
// balancer can do version-aware health checks in one round trip
// without also polling /models.
type healthJSON struct {
	Status string `json:"status"`
	// Models is the version vector: one entry per live route with the
	// store snapshot and model content checksum when a store is
	// attached (globally comparable across replicas sharing a store).
	Models []RouteVersion `json:"models,omitempty"`
	// StoreChecksum folds the version vector into one digest: equal
	// digests ⇒ the replicas serve identical model sets.
	StoreChecksum string `json:"store_checksum,omitempty"`
	// StreamAddr is the replica's stream listener, when one is
	// advertised (SetStreamAddr) — how a router discovers the cheap
	// transport from the HTTP address it was configured with.
	StreamAddr string    `json:"stream_addr,omitempty"`
	Build      obs.Build `json:"build"`
}

// handleHealthz answers 200 with the replica identity once at least
// one model is published, 503 before that (load balancers keep the
// replica out of rotation until it can actually answer estimates).
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	vec := s.reg.VersionVector()
	if len(vec) == 0 {
		WriteError(w, r, &Error{Message: "no models published", Code: CodeUnavailable})
		return
	}
	writeJSON(w, r, http.StatusOK, healthJSON{
		Status:        "ok",
		Models:        vec,
		StoreChecksum: VersionChecksum(vec),
		StreamAddr:    s.StreamAddr(),
		Build:         obs.BuildInfo(),
	})
}

// SetStreamAddr advertises the service's stream listener address on
// /healthz. cmd/resserve calls it after the listener binds.
func (s *Service) SetStreamAddr(addr string) { s.streamAddr.Store(&addr) }

// StreamAddr returns the advertised stream listener ("" when none).
func (s *Service) StreamAddr() string {
	if p := s.streamAddr.Load(); p != nil {
		return *p
	}
	return ""
}

// WriteMetrics answers GET /metrics, negotiating between the JSON
// snapshot (the default — each tier's Metrics wire shape is pinned by
// test) and reg's Prometheus text exposition for scrapers that ask for
// it. The router's metrics endpoint calls it too, so both tiers answer
// content negotiation identically.
func WriteMetrics(w http.ResponseWriter, r *http.Request, reg *obs.Registry, snapshot func() any) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.TextContentType)
		w.WriteHeader(http.StatusOK)
		_ = reg.WritePrometheus(w)
		return
	}
	writeJSON(w, r, http.StatusOK, snapshot())
}

// wantsPrometheus decides the /metrics representation: an explicit
// ?format= wins, then the Accept header. JSON is the default so
// existing scrapers (and plain http.Get, which sends no Accept) keep
// their bytes.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// wantsExplain reads the ?explain=1 switch of POST /estimate. A query
// parameter rather than a body field so existing client payloads work
// unchanged and the flag is visible in access logs.
func wantsExplain(r *http.Request) bool {
	if r.URL.RawQuery == "" { // nearly every request: Query would parse nothing into a fresh map
		return false
	}
	switch r.URL.Query().Get("explain") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// reqIDKey keys the request ID in a request context.
type reqIDKey struct{}

// RequestIDHeader is the request-ID header's name in net/http's
// canonical spelling, which Header.Get and Header.Set take as is; any
// other spelling they rewrite, allocating, on every call.
const RequestIDHeader = "X-Request-Id"

// WithRequestID gives every request an ID — X-Request-ID when the
// client sent one, a generated ID otherwise — echoes it on the response
// header, and stores it in the request context for error envelopes,
// traces, and the router's hop to a replica.
func WithRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
	})
}

// RequestIDFrom returns the request ID WithRequestID stored, "" when
// the context has none.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// bodyPool recycles the buffers request bodies are read into. Nothing
// decoded from a body aliases it — strings are copied out, the plan is
// rebuilt — so a handler returns its buffer when it returns. A buffer a
// large batch grew is not kept.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// readBody reads an endpoint's request body — all of it, refusing one
// over limit — into a pooled buffer, answering the request itself when
// that fails. The caller hands the buffer back with releaseBody.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		releaseBody(buf)
		WriteError(w, r, BadBody(err))
		return nil, false
	}
	return buf, true
}

// decodeBody decodes a request body's envelope, answering the request
// itself when it does not decode.
func decodeBody(w http.ResponseWriter, r *http.Request, body []byte, keys EnvelopeKeys) (Envelope, bool) {
	env, err := DecodeRequest(body, keys)
	switch {
	case err == nil:
		return env, true
	case errors.Is(err, errTooManyPlans):
		WriteError(w, r, &Error{Message: err.Error(), Code: CodeBatchTooLarge})
	default:
		WriteError(w, r, BadBody(err))
	}
	return Envelope{}, false
}

// readRequest is readBody then decodeBody. The caller hands the buffer
// back with releaseBody once the envelope's plan is decoded.
func readRequest(w http.ResponseWriter, r *http.Request, limit int64, keys EnvelopeKeys) (Envelope, *bytes.Buffer, bool) {
	buf, ok := readBody(w, r, limit)
	if !ok {
		return Envelope{}, nil, false
	}
	env, ok := decodeBody(w, r, buf.Bytes(), keys)
	if !ok {
		releaseBody(buf)
		return Envelope{}, nil, false
	}
	return env, buf, true
}

// readModelChange decodes the first JSON value of a model-change body,
// read whole under MaxPublishBody as the router reads it before its
// fan-out, answering the request itself when either fails.
func readModelChange(w http.ResponseWriter, r *http.Request, v any) bool {
	buf, ok := readBody(w, r, MaxPublishBody)
	if !ok {
		return false
	}
	defer releaseBody(buf)
	if err := json.NewDecoder(buf).Decode(v); err != nil {
		WriteError(w, r, BadBody(err))
		return false
	}
	return true
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// ResolveEstimate turns a decoded single-plan envelope — the resources
// selection, its single-resource fallback and the plan, built by the
// walker or still wire bytes — into what Estimate takes: the resource
// kinds and the decoded, validated plan. Every transport that takes the
// envelope (POST /estimate, POST /observe, the stream's estimate frame)
// resolves it here, so they refuse the same requests in the same words,
// with the envelope it returns on failure: an unknown resource, a
// missing plan (the key absent, or null: bad_request rather than a
// decode error about wire version 0), a plan that does not decode
// (unknown_operator told apart from bad_plan). All are the client's
// fault, HTTP status 400.
func ResolveEstimate(env *Envelope) ([]plan.ResourceKind, *plan.Plan, *Error) {
	kinds, err := env.Resources.Kinds(env.Resource)
	if err != nil {
		return nil, nil, ErrorFor(err)
	}
	if env.Built != nil {
		return kinds, env.Built, nil
	}
	if len(env.Plan) == 0 || string(env.Plan) == "null" {
		return nil, nil, &Error{Message: "missing plan", Code: CodeBadRequest}
	}
	p, err := plan.DecodeJSON(env.Plan)
	if err != nil {
		return nil, nil, &Error{Message: err.Error(), Code: planErrCode(err)}
	}
	return kinds, p, nil
}

// estimateCall is what POST /estimate and POST /estimate/batch share
// around their own middle (reading the body, which plans, which service
// call): newCall starts the request's clock and trace, reject answers a
// request the envelope already condemns, decoded closes the decode
// stage, and finish writes the service's answer — the response under an
// encode stage, or the mapped error — and the slow-trace record.
type estimateCall struct {
	w   http.ResponseWriter
	r   *http.Request
	ep  int
	svc *Service
	// tr is kept only while something will read it: with telemetry on
	// and a slow-trace threshold set.
	tr *obs.Trace
	// start anchors the decode stage; zero with telemetry off.
	start time.Time
	env   Envelope
	// key, when not "", is a copy of a single estimate's request bytes:
	// what finish files the answer under for Replay.
	key string
	// plans, when > 0, is stamped on the slow-trace record.
	plans int
}

func (s *Service) newCall(w http.ResponseWriter, r *http.Request, ep int) estimateCall {
	c := estimateCall{w: w, r: r, ep: ep, svc: s}
	if tel := s.tel; tel != nil {
		c.start = time.Now()
		if tel.slow > 0 {
			c.tr = obs.NewTrace(endpointNames[ep], RequestIDFrom(r.Context()))
		}
	}
	return c
}

// reject answers a request the envelope condemns.
func (c *estimateCall) reject(e *Error) { WriteError(c.w, c.r, e) }

// decoded records the decode stage and returns the context the service
// call runs under, carrying the trace.
func (c *estimateCall) decoded() context.Context {
	if tel := c.svc.tel; tel != nil {
		tel.rec(c.ep, obs.StageDecode, time.Since(c.start), c.tr)
	}
	return obs.WithTrace(c.r.Context(), c.tr)
}

func (c *estimateCall) finish(resp any, err error) {
	tel := c.svc.tel
	var buf [2]slog.Attr // the slow-trace extras, without a heap slice per request
	attrs := buf[:0]
	switch {
	case err != nil:
		WriteError(c.w, c.r, ErrorFor(err))
		attrs = append(attrs, slog.String("error", err.Error()))
	case tel == nil:
		c.write(resp)
	default:
		encodeStart := time.Now()
		c.write(resp)
		tel.rec(c.ep, obs.StageEncode, time.Since(encodeStart), c.tr)
	}
	if c.tr == nil {
		return
	}
	if c.plans > 0 {
		attrs = append(attrs, slog.Int("plans", c.plans))
	}
	c.tr.LogSlow(tel.logger, tel.slow, attrs...)
}

// write sends the service's answer. One that may be replayed (c.key) is
// encoded once and filed before any of it reaches the client, so a
// client holding its answer that asks again is replayed — the stream's
// rule, and its sequence: MarshalWire, FileReplay, send. A response
// that does not encode (a NaN or infinite number) is never filed; it
// is left to writeJSON to refuse.
func (c *estimateCall) write(resp any) {
	if r, ok := resp.(*Response); ok && c.key != "" {
		if wire, err := MarshalWire(r); err == nil {
			c.svc.FileReplay(c.key, c.env.Schema, r, wire)
			writeWire(c.w, http.StatusOK, wire)
			return
		}
	}
	writeJSON(c.w, c.r, http.StatusOK, resp)
}

// handleEstimate answers a body it has answered before from the
// response cache — the one the stream listener's estimate frame asks,
// so either transport replays what the other computed — before anything
// of it is parsed: no decode, no model lookup, no deadline, no compute
// slot, no encode. A replay counts as a request on the estimate
// endpoint and records one cache_probe stage. Anything else takes the
// computed path and files its answer (estimateCall.write).
//
// Never replayed and never filed: ?explain=1 (the decomposition is not
// part of the stored answer, and is asked for to be recomputed), error
// answers of any status, everything when Options.CacheEntries < 0. A
// body's timeout_ms does not stop a replay. POST /estimate/batch and
// POST /observe are deliberately not cached: a batch body is up to 1024
// plans, so a bound on entries would bound no bytes worth having, and
// the batch path is where extraction, the slab walk and cache churn are
// meant to show; an observation is a write.
func (s *Service) handleEstimate(w http.ResponseWriter, r *http.Request) {
	c := s.newCall(w, r, epEstimate)
	buf, ok := readBody(w, r, MaxEstimateBody)
	if !ok {
		return
	}
	defer releaseBody(buf)
	explain := wantsExplain(r)
	cached := s.replay != nil && !explain
	if cached && c.replay(buf.Bytes()) {
		return
	}
	if c.env, ok = decodeBody(w, r, buf.Bytes(), EstimateKeys); !ok {
		return
	}
	kinds, p, e := ResolveEstimate(&c.env)
	if e != nil {
		c.reject(e)
		return
	}
	if cached { // copied only once the body is known to be a request
		c.key = buf.String()
	}
	c.finish(s.Estimate(c.decoded(), Request{
		Schema:    c.env.Schema,
		Resources: kinds,
		Plan:      p,
		Timeout:   time.Duration(c.env.TimeoutMS) * time.Millisecond,
		Explain:   explain,
	}))
}

// replay answers the request from the response cache if it can, and
// counts it either way.
func (c *estimateCall) replay(body []byte) bool {
	s := c.svc
	start := time.Now()
	wire, ok := s.Replay(body)
	if !ok {
		s.replayMisses.Add(1)
		return false
	}
	s.replayHits.Add(1)
	s.epRequests[epEstimate].Add(1) // begin's count, under a clock that started before the probe
	writeWire(c.w, http.StatusOK, wire)
	d := s.finish(epEstimate, start, nil)
	if tel := s.tel; tel != nil {
		tel.rec(epEstimate, obs.StageCacheProbe, d, c.tr)
		c.tr.LogSlow(tel.logger, tel.slow)
	}
	return true
}

func (s *Service) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	c := s.newCall(w, r, epBatch)
	env, buf, ok := readRequest(w, r, MaxBatchBody, batchKeys)
	if !ok {
		return
	}
	defer releaseBody(buf)
	c.env = env
	kinds, err := c.env.Resources.Kinds(c.env.Resource)
	if err != nil {
		c.reject(ErrorFor(err))
		return
	}
	if len(c.env.Plans) == 0 {
		c.reject(&Error{Message: "missing plans", Code: CodeBadRequest})
		return
	}
	if err := c.env.badPlanErr; err != nil {
		idx := c.env.badPlan
		c.reject(&Error{Message: fmt.Sprintf("plan %d: %v", idx, err), Code: planErrCode(err), Plan: &idx})
		return
	}
	c.plans = len(c.env.Plans)
	c.finish(s.EstimateBatch(c.decoded(), BatchRequest{
		Schema:    c.env.Schema,
		Resources: kinds,
		Plans:     c.env.Plans,
		Timeout:   time.Duration(c.env.TimeoutMS) * time.Millisecond,
	}))
}

// handlePublish rolls out a new model version from a file under the
// configured ModelDir without downtime: in-flight requests finish on
// the version they routed to, subsequent ones see the new model. The
// endpoint is disabled when no ModelDir is configured, and requested
// paths may not escape it. A snapshot write that fails answers 500,
// naming the version that serves regardless.
func (s *Service) handlePublish(w http.ResponseWriter, r *http.Request) {
	if s.opts.ModelDir == "" {
		WriteError(w, r, &Error{Message: "model publishing disabled (no model directory configured)", Code: CodeForbidden})
		return
	}
	var req publishRequestJSON
	if !readModelChange(w, r, &req) {
		return
	}
	if req.Path == "" {
		WriteError(w, r, &Error{Message: "missing path", Code: CodeBadRequest})
		return
	}
	if !filepath.IsLocal(req.Path) {
		WriteError(w, r, &Error{Message: "path must be relative to the model directory", Code: CodeBadRequest})
		return
	}
	info, err := s.reg.PublishFile(req.Schema, filepath.Join(s.opts.ModelDir, req.Path))
	if err != nil {
		e := &Error{Message: err.Error(), Code: CodeBadRequest}
		if errors.Is(err, errUnpersisted) {
			e = &Error{Message: fmt.Sprintf("version %d serves in no snapshot: %v", info.Version, err), Code: CodeInternal}
		}
		WriteError(w, r, e)
		return
	}
	writeJSON(w, r, http.StatusOK, info)
}

// errNoFeedback refuses an observation on a service with no feedback
// loop attached.
var errNoFeedback = &Error{Message: "observation ingest disabled (no feedback loop attached)", Code: CodeForbidden}

// handleObserve ingests one (plan, predicted, actual) observation into
// the feedback loop — the entry point of the serve → observe → retrain
// → hot-swap cycle.
func (s *Service) handleObserve(w http.ResponseWriter, r *http.Request) {
	loop := s.opts.Feedback
	if loop == nil {
		WriteError(w, r, errNoFeedback)
		return
	}
	env, buf, ok := readRequest(w, r, MaxEstimateBody, observeKeys)
	if !ok {
		return
	}
	defer releaseBody(buf)
	kinds, p, e := ResolveEstimate(&env)
	if e != nil {
		WriteError(w, r, e)
		return
	}
	// The estimate this observation reports on left the plan's
	// per-operator predictions in the cache; the loop scores against
	// those instead of walking the model again. The log records the
	// plan's bytes as the body carried them rather than re-encoding p;
	// they alias buf, and the predictions alias the pooled sc, both of
	// which outlive the call.
	sc := getScratch()
	defer putScratch(sc)
	served := s.servedPredictions(env.Schema, kinds, p, sc)
	served.Wire = env.Plan
	err := loop.ObserveServed(&feedback.Observation{
		Schema:       env.Schema,
		Resource:     kinds[0],
		ModelVersion: env.ModelVersion,
		Predicted:    env.Predicted,
		Plan:         p,
		// The request ID (client-supplied or minted by the middleware)
		// rides into the observation record and any worst-prediction
		// exemplar it becomes, joining them to traces and request logs.
		RequestID: RequestIDFrom(r.Context()),
	}, served)
	if err != nil {
		// Malformed observations are the client's fault; anything else
		// (log I/O, shutdown) is a server-side failure — never a 4xx
		// that would teach clients to drop valid reports.
		e := &Error{Message: err.Error(), Code: CodeInternal}
		switch {
		case errors.Is(err, feedback.ErrInvalid):
			e.Code = CodeBadRequest
		case errors.Is(err, feedback.ErrClosed):
			e.Code = CodeUnavailable
		}
		WriteError(w, r, e)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_, _ = io.WriteString(w, "{\"status\":\"accepted\"}\n") // the client went away; nothing to report it to
}

// handleObserveSegment bulk-ingests observations framed with the
// feedback log's CRC segment codec — the fleet feedback path: replica
// forwarders ship their observation-log segments here (raw bytes, no
// re-encoding) and the designated retrainer's loop ingests each
// record as if it had been observed locally. Delivery is
// at-least-once; duplicate observations only re-enter the rolling
// windows, which is harmless by design.
func (s *Service) handleObserveSegment(w http.ResponseWriter, r *http.Request) {
	loop := s.opts.Feedback
	if loop == nil {
		WriteError(w, r, errNoFeedback)
		return
	}
	var accepted, rejected int
	_, err := feedback.DecodeRecords(http.MaxBytesReader(w, r.Body, MaxBatchBody), func(o *feedback.Observation) error {
		err := loop.Observe(o)
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, feedback.ErrInvalid):
			// One replica's bad record must not fail the whole chunk —
			// the forwarder would resend it forever.
			rejected++
		default:
			return err
		}
		return nil
	})
	if err != nil {
		e := &Error{Message: err.Error(), Code: CodeBadRequest}
		if errors.Is(err, feedback.ErrClosed) {
			e.Code = CodeUnavailable
		}
		WriteError(w, r, e)
		return
	}
	writeJSON(w, r, http.StatusAccepted, map[string]int{"accepted": accepted, "rejected": rejected})
}

type rollbackRequestJSON struct {
	Schema   string `json:"schema,omitempty"`
	Resource string `json:"resource,omitempty"`
}

// handleRollback reverts a route to its previously published model
// version. The prior estimator comes back under a fresh version number,
// so cache entries keyed to the rolled-back version can never serve.
func (s *Service) handleRollback(w http.ResponseWriter, r *http.Request) {
	var req rollbackRequestJSON
	if !readModelChange(w, r, &req) {
		return
	}
	resource, err := ParseResource(req.Resource)
	if err != nil {
		WriteError(w, r, ErrorFor(err))
		return
	}
	info, err := s.reg.Rollback(req.Schema, resource)
	if err != nil {
		WriteError(w, r, ErrorFor(err))
		return
	}
	writeJSON(w, r, http.StatusOK, info)
}

// NewHTTPServer is the http.Server resserve and resrouter listen with:
// h behind bounded header reads (10s), request reads and response
// writes (30s each), and idle keep-alive connections reaped after 2m.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// DrainHTTP shuts srv down gracefully, giving in-flight handlers up to
// timeout to finish. Past the deadline it force-closes the remaining
// connections — which cancels each parked handler's request context, so
// a handler waiting on the service unwinds at once instead of racing
// the teardown that follows — and returns Shutdown's error. nil means
// every handler finished in time.
func DrainHTTP(srv *http.Server, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
		return err
	}
	return nil
}
