// Package feedback closes the serve → observe → retrain → hot-swap
// loop: the online half of the paper's "robust estimation under
// changing workloads" claim.
//
// The serving layer trains offline and serves frozen models; once the
// production workload drifts outside the training distribution,
// accuracy silently degrades. This package ingests (plan, predicted,
// actual) observations from the serving path, persists them to a
// segmented append-only log (binary codec with CRC framing, crash-safe
// replay), tracks per-schema and per-operator rolling relative-error
// quantiles, and compares the recent error distribution against the
// model's training-time baseline (core.ErrorBaseline). When recent
// errors cross a configured multiple of the baseline, a background
// retrainer re-featurizes the logged observations, trains a fresh
// estimator through internal/core, validates it on a held-out slice of
// the log (reject-if-worse guard), and publishes it to the serving
// registry — where the version-keyed prediction cache self-invalidates
// and traffic moves over with zero downtime.
//
// Observation, drift tracking and retraining are all per (schema,
// resource) route: CPU and I/O models drift and retrain independently.
// Durability of the rollout is the registry's concern: when the serving
// registry has a model store attached (serve.Registry.AttachStore), a
// retrained model's publish persists a coherent snapshot of the
// schema's whole model set — the retrained resource alongside the
// incumbent others — so a crash after rollout restores exactly the
// serving state the loop produced.
package feedback

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/plan"
)

// ErrClosed is returned by Observe after Close.
var ErrClosed = errors.New("feedback: loop closed")

// ErrInvalid wraps rejections of malformed observations (no plan, no
// actuals, invalid plan structure) — the caller's fault, as opposed to
// ingest failures like log I/O errors.
var ErrInvalid = errors.New("feedback: invalid observation")

// Observation is one (plan, predicted, actual) triple reported by the
// serving path: a plan that was estimated earlier and has since
// finished executing, with measured per-operator resources filled in.
type Observation struct {
	// Schema the request was routed with (the registry's model key).
	Schema string
	// Resource the prediction was for.
	Resource plan.ResourceKind
	// ModelVersion that produced Predicted, when known (0 otherwise).
	ModelVersion uint64
	// Predicted is the served plan-total prediction. When zero, the
	// loop recomputes it against the current model at ingest time.
	Predicted float64
	// Plan is the executed physical plan; node Actual fields carry the
	// measurements the retrainer learns from. Observe retains the plan
	// in the retraining buffer and a background retrain may read it
	// later — ownership passes to the loop, so callers must not mutate
	// the plan (e.g. re-execute it) after reporting it. The HTTP path
	// decodes a fresh plan per request and is unaffected.
	Plan *plan.Plan
	// UnixNanos timestamps the observation (ingest time when zero).
	UnixNanos int64
	// RequestID is the serving-layer request ID of the original
	// estimate (the X-Request-ID the service echoed), when the reporter
	// carries it. It joins worst-prediction exemplars with slow-request
	// traces and request logs on one key. Optional; persisted with the
	// observation (codec v2).
	RequestID string
}

// Actual returns the measured plan total for the observed resource.
func (o *Observation) Actual() float64 {
	return o.Plan.TotalActual().Get(o.Resource)
}

// validate rejects observations the retrainer could not learn from.
func (o *Observation) validate() error {
	if o.Plan == nil || o.Plan.Root == nil {
		return fmt.Errorf("%w: no plan", ErrInvalid)
	}
	if err := o.Plan.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if len(o.Schema) >= maxSchemaLen {
		return fmt.Errorf("%w: schema name %d bytes long", ErrInvalid, len(o.Schema))
	}
	if len(o.RequestID) >= maxRequestIDLen {
		return fmt.Errorf("%w: request ID %d bytes long", ErrInvalid, len(o.RequestID))
	}
	// An out-of-range resource would encode fine but poison the log:
	// decode treats it as a writer bug and refuses the whole segment.
	if o.Resource != plan.CPUTime && o.Resource != plan.LogicalIO {
		return fmt.Errorf("%w: unknown resource kind %d", ErrInvalid, o.Resource)
	}
	// Predicted must be finite and non-negative: zero is the documented
	// "recompute against the current model at ingest" sentinel, but a
	// NaN/±Inf/negative value would flow straight into the signed
	// log-ratio error windows and poison the drift detector's quantiles
	// (one NaN makes every P90 comparison false, silently disarming
	// retraining).
	if math.IsNaN(o.Predicted) || math.IsInf(o.Predicted, 0) || o.Predicted < 0 {
		return fmt.Errorf("%w: predicted %v is not a finite non-negative value", ErrInvalid, o.Predicted)
	}
	// Actuals are training labels: the retrainer fits log-scale targets,
	// so the plan total must be finite and strictly positive. !(a > 0)
	// rather than a <= 0 so NaN (all comparisons false) is caught too.
	if a := o.Actual(); !(a > 0) || math.IsInf(a, 0) {
		return fmt.Errorf("%w: actual %s total %v is not a finite positive measurement", ErrInvalid, o.Resource, a)
	}
	return nil
}

// Publisher is the feedback loop's view of the serving registry: read
// the current model for a route, publish a retrained replacement.
// *serve.Registry implements it.
type Publisher interface {
	// CurrentEstimator returns the live estimator and version for
	// (schema, resource), following the registry's wildcard fallback.
	CurrentEstimator(schema string, resource plan.ResourceKind) (est *core.Estimator, version uint64, ok bool)
	// PublishEstimator atomically installs est as the new version for
	// schema and returns the assigned version.
	PublishEstimator(schema string, est *core.Estimator) (version uint64)
}

// Options configures a Loop. The zero value of every field selects a
// sensible default; only Publisher is required for retraining (a Loop
// without one still logs and tracks errors). Everything else about the
// loop's tuning is fixed: see the constants below.
type Options struct {
	// Dir is the observation-log directory. Empty disables persistence:
	// observations are tracked in memory only.
	Dir string

	// Publisher connects the loop to the serving registry. Nil disables
	// drift-triggered retraining (observations are still logged).
	Publisher Publisher

	// DriftThreshold triggers a retrain when the recent P90 error
	// exceeds this multiple of the model's training-time baseline
	// (default 2).
	DriftThreshold float64

	// MinObservations gates retraining: a retrain needs this many
	// buffered observations, and after an attempt the route must gather
	// this many fresh ones before the next (default 256).
	MinObservations int
	// TrainWorkers bounds the retrainer's worker pool (0 = GOMAXPROCS,
	// 1 = sequential): the per-operator candidate fits of a retrain fan
	// out across cores, shrinking the drift→retrain→hot-swap latency a
	// degraded model keeps serving through. Retrained models are
	// bit-identical at any worker count.
	TrainWorkers int

	// Logf, when set, receives one line per notable event (drift
	// detected, retrain accepted/rejected, replay summary).
	Logf func(format string, args ...any)
}

// The loop's fixed tuning.
const (
	// windowSize bounds the per-route rolling error window.
	windowSize = 512
	// minWindow is the window fill before drift is evaluated.
	minWindow = 64
	// checkEvery evaluates drift every n-th observation per route.
	checkEvery = 32
	// driftQuantile is the windowed error quantile compared against the
	// baseline's P90.
	driftQuantile = 0.9
	// minBaselineError floors the baseline so a near-perfect training
	// fit does not make the detector hair-triggered. Models without a
	// stamped baseline use the floor alone.
	minBaselineError = 0.05
	// maxRoutes bounds the distinct (schema, resource) routes the loop
	// tracks. Observations for a new route beyond it are rejected as
	// invalid — without this, a client spraying unique schema names at
	// POST /observe would grow the per-route windows and buffers without
	// bound.
	maxRoutes = 64
	// exemplarK bounds the worst-prediction exemplar store: the top-K
	// largest mispredictions (by |log-ratio error|) are kept with their
	// plan wire form and features for GET /debug/exemplars.
	exemplarK = 32
	// retrainIterations is the MART boosting budget for retrained models.
	retrainIterations = 120
	// maxHoldoutError is the absolute quality gate: a candidate whose
	// mean holdout relative error exceeds it is rejected even when it
	// beats the incumbent — the defense against garbage actuals
	// poisoning the loop.
	maxHoldoutError = 0.5

	// perOpWindowSize bounds the per-operator rolling error windows.
	perOpWindowSize = 256
	// retrainBufferCap bounds a route's in-memory buffer of recent
	// observations, the retrainer's input (see Loop.bufferCap).
	retrainBufferCap = 8192
)

func (o *Options) withDefaults() Options {
	out := *o
	if out.DriftThreshold <= 0 {
		out.DriftThreshold = 2
	}
	if out.MinObservations <= 0 {
		out.MinObservations = 256
	}
	return out
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}
