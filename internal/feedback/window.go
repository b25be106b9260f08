package feedback

import (
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stats"
)

// Per-route (schema, resource) rolling error state: the plan-level
// window drives drift detection, the per-operator windows are
// diagnostic gauges (which operator's model went stale?), and the
// bounded observation buffer feeds the retrainer.

type routeKey struct {
	schema   string
	resource plan.ResourceKind
}

type routeState struct {
	count  uint64 // observations ever ingested for this route
	window *stats.Rolling
	perOp  map[plan.OpKind]*stats.Rolling

	// Cumulative accuracy telemetry (never reset, unlike the rolling
	// windows): the signed log-ratio error distribution at plan and
	// operator granularity, and the empirical-coverage counters behind
	// the calibration roadmap item (how often the actual landed within
	// a factor band of the prediction).
	errHist   obs.ErrorHistogram
	opErrHist map[plan.OpKind]*obs.ErrorHistogram
	covTotal  uint64
	cov15     uint64 // actual within 1.5x of predicted either way
	cov20     uint64 // actual within 2x of predicted either way

	// buffer is a ring of the most recent observations (retraining
	// input). next is the write position once the ring reaches capacity.
	buffer []*Observation
	next   int

	drifting    bool
	retraining  bool
	lastAttempt uint64 // count at the last retrain attempt
	retrains    uint64
	rejections  uint64
	seenVersion uint64  // serving version the windows describe
	lastVersion uint64  // last version this loop published
	lastHoldout float64 // holdout error of the last accepted model
}

// opHist returns (creating on first use) the operator's cumulative
// signed-error histogram. Caller holds l.mu.
func (st *routeState) opHist(k plan.OpKind) *obs.ErrorHistogram {
	h, ok := st.opErrHist[k]
	if !ok {
		h = new(obs.ErrorHistogram)
		st.opErrHist[k] = h
	}
	return h
}

func (l *Loop) route(k routeKey) *routeState {
	st, ok := l.routes[k]
	if !ok {
		st = &routeState{
			window:    stats.NewRolling(windowSize),
			perOp:     make(map[plan.OpKind]*stats.Rolling),
			opErrHist: make(map[plan.OpKind]*obs.ErrorHistogram),
		}
		l.routes[k] = st
	}
	return st
}

// bufferCap bounds a route's retraining buffer: retrainBufferCap,
// raised to MinObservations so a large MinObservations cannot silently
// make retraining unreachable.
func (l *Loop) bufferCap() int { return max(retrainBufferCap, l.opts.MinObservations) }

// push appends obs to the route's retraining ring buffer, bounded to
// limit entries. The buffer grows lazily rather than preallocating the
// bound, so a generous bound costs memory proportional to traffic
// actually seen.
func (st *routeState) push(obs *Observation, limit int) {
	if len(st.buffer) < limit {
		st.buffer = append(st.buffer, obs)
		return
	}
	st.buffer[st.next] = obs
	st.next++
	if st.next == len(st.buffer) {
		st.next = 0
	}
}

// buffered returns the ring contents in arrival order.
func (st *routeState) buffered() []*Observation {
	out := make([]*Observation, 0, len(st.buffer))
	out = append(out, st.buffer[st.next:]...)
	return append(out, st.buffer[:st.next]...)
}

// resetWindows clears the error windows after a model swap: the stats
// described the replaced version, and mixing them with the new model's
// errors would stall (or falsely re-trigger) the drift detector.
func (st *routeState) resetWindows() {
	st.window.Reset()
	for _, w := range st.perOp {
		w.Reset()
	}
	st.drifting = false
}

// WindowStats summarizes one rolling error window.
type WindowStats struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func windowStats(w *stats.Rolling) WindowStats {
	qs := w.Quantiles(0.5, 0.9, 0.95, 0.99)
	return WindowStats{Count: w.Len(), Mean: w.Mean(), P50: qs[0], P90: qs[1], P95: qs[2], P99: qs[3]}
}

// ErrorQuantiles summarizes a signed log-ratio error histogram:
// quantiles are ln(predicted/actual) — negative means the model
// under-estimated — and Under/Over split the population by direction.
type ErrorQuantiles struct {
	Count  uint64  `json:"count"`
	Under  uint64  `json:"under"`
	Over   uint64  `json:"over"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	MaxAbs float64 `json:"max_abs"`
}

func errorQuantiles(h *obs.ErrorHistogram) *ErrorQuantiles {
	snap := h.Snapshot()
	s := snap.Summarize()
	if s.Count == 0 {
		return nil
	}
	return &ErrorQuantiles{
		Count: s.Count, Under: s.UnderCount, Over: s.OverCount,
		P50: s.P50, P90: s.P90, P99: s.P99, MaxAbs: s.MaxAbs,
	}
}

// CoverageStats counts how often the actual landed within a factor
// band of the prediction — the empirical-coverage groundwork for
// calibrated prediction intervals.
type CoverageStats struct {
	Total     uint64 `json:"total"`
	Within15x uint64 `json:"within_1_5x"`
	Within2x  uint64 `json:"within_2x"`
}

// DriftState is the drift detector laid open for one route: what the
// recent error is, what it is compared against, and how far the route
// sits from a retrain trigger.
type DriftState struct {
	// Baseline is the training-time error level "normal" is measured
	// from (floored by minBaselineError).
	Baseline float64 `json:"baseline"`
	// Quantile is the windowed quantile under comparison.
	Quantile float64 `json:"quantile"`
	// RecentError is the window's current value at Quantile.
	RecentError float64 `json:"recent_error"`
	// Threshold is the trigger level: DriftThreshold × Baseline.
	Threshold float64 `json:"threshold"`
	// DistanceToThreshold = Threshold − RecentError; ≤ 0 means the
	// route is at or past the trigger.
	DistanceToThreshold float64 `json:"distance_to_threshold"`
	// WindowFill / MinWindow: drift is only evaluated once the window
	// holds MinWindow samples.
	WindowFill int `json:"window_fill"`
	MinWindow  int `json:"min_window"`
	// Drifting is the detector's latest verdict (sticky between
	// checkEvery evaluations).
	Drifting bool `json:"drifting"`
	// RetrainEligible reports whether a drift finding would start a
	// retrain right now (publisher present, no retrain in flight,
	// enough buffered observations, cooldown elapsed).
	RetrainEligible bool `json:"retrain_eligible"`
}

// OpStats is one operator's error gauge within a route.
type OpStats struct {
	Op string `json:"op"`
	WindowStats
	ErrorLogRatio *ErrorQuantiles `json:"error_log_ratio,omitempty"`
}

// RouteStats is the exported snapshot of one (schema, resource) route —
// the per-model error gauges surfaced through the serving /metrics
// endpoint. Fields added after PR 6 (error_log_ratio, coverage, drift)
// are strictly additive and omitted when empty, keeping the idle
// /metrics JSON byte-identical.
type RouteStats struct {
	Schema        string              `json:"schema"`
	Resource      string              `json:"resource"`
	Observations  uint64              `json:"observations"`
	Buffered      int                 `json:"buffered"`
	Window        WindowStats         `json:"window"`
	Baseline      *core.ErrorBaseline `json:"baseline,omitempty"`
	Drifting      bool                `json:"drifting"`
	Retraining    bool                `json:"retraining"`
	Retrains      uint64              `json:"retrains"`
	Rejections    uint64              `json:"rejections"`
	LastVersion   uint64              `json:"last_published_version,omitempty"`
	LastHoldout   float64             `json:"last_holdout_error,omitempty"`
	ErrorLogRatio *ErrorQuantiles     `json:"error_log_ratio,omitempty"`
	Coverage      *CoverageStats      `json:"coverage,omitempty"`
	Drift         *DriftState         `json:"drift,omitempty"`
	PerOperator   []OpStats           `json:"per_operator,omitempty"`
}

// Snapshot returns the current per-route gauges, sorted by (schema,
// resource) for stable output.
func (l *Loop) Snapshot() []RouteStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RouteStats, 0, len(l.routes))
	for k, st := range l.routes {
		rs := RouteStats{
			Schema:       k.schema,
			Resource:     k.resource.String(),
			Observations: st.count,
			Buffered:     len(st.buffer),
			Window:       windowStats(st.window),
			Drifting:     st.drifting,
			Retraining:   st.retraining,
			Retrains:     st.retrains,
			Rejections:   st.rejections,
			LastVersion:  st.lastVersion,
			LastHoldout:  st.lastHoldout,
		}
		var est *core.Estimator
		if l.opts.Publisher != nil {
			if e, _, ok := l.opts.Publisher.CurrentEstimator(k.schema, k.resource); ok {
				est = e
				if e.Baseline != nil {
					b := *e.Baseline
					rs.Baseline = &b
				}
			}
		}
		rs.ErrorLogRatio = errorQuantiles(&st.errHist)
		if st.covTotal > 0 {
			rs.Coverage = &CoverageStats{Total: st.covTotal, Within15x: st.cov15, Within2x: st.cov20}
		}
		baseline := driftBaseline(est)
		threshold := l.opts.DriftThreshold * baseline
		recent := st.window.Quantile(driftQuantile)
		rs.Drift = &DriftState{
			Baseline:            baseline,
			Quantile:            driftQuantile,
			RecentError:         recent,
			Threshold:           threshold,
			DistanceToThreshold: threshold - recent,
			WindowFill:          st.window.Len(),
			MinWindow:           minWindow,
			Drifting:            st.drifting,
			RetrainEligible:     l.retrainEligible(st),
		}
		ops := make([]plan.OpKind, 0, len(st.perOp))
		for op := range st.perOp {
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
		for _, op := range ops {
			if w := st.perOp[op]; w.Len() > 0 {
				rs.PerOperator = append(rs.PerOperator, OpStats{
					Op:            op.String(),
					WindowStats:   windowStats(w),
					ErrorLogRatio: errorQuantiles(st.opErrHist[op]),
				})
			}
		}
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Schema != out[j].Schema {
			return out[i].Schema < out[j].Schema
		}
		return out[i].Resource < out[j].Resource
	})
	return out
}
