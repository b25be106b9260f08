package serve

import (
	"context"
	"log/slog"
	"strconv"
	"time"

	"repro/internal/feedback"
	"repro/internal/obs"
	"repro/internal/par"
)

// Telemetry for the serving hot path. The service always exposes its
// counters (requests, failures, cache, models, feedback gauges)
// through the obs registry; the per-stage latency histograms and slow
// traces add a handful of clock reads and atomic adds per request and
// can be switched off wholesale with Options.DisableTelemetry — the
// benchmark reports the difference as obs.telemetry_overhead_pct.

// Endpoint indexes for per-endpoint telemetry arrays.
const (
	epEstimate = iota
	epBatch
	epStream
	numEndpoints
)

// endpointNames are the wire names used as the Prometheus endpoint
// label and the JSON metrics keys.
var endpointNames = [numEndpoints]string{"estimate", "estimate_batch", "estimate_stream"}

// telemetry bundles the per-endpoint histograms and slow-trace
// configuration. nil *telemetry means stage timing is disabled; the
// histograms themselves are nil-safe, but the service also gates its
// hot-path clock reads on the nil check so disabling telemetry removes
// the timing cost entirely, not just the recording.
type telemetry struct {
	logger *slog.Logger
	slow   time.Duration

	// total is the end-to-end service latency per endpoint (what
	// avg_latency_ms summarizes); stages break it down.
	total  [numEndpoints]obs.Histogram
	stages [numEndpoints][obs.NumStages]obs.Histogram
}

func newTelemetry(o Options) *telemetry {
	t := &telemetry{logger: o.Logger, slow: o.SlowTrace}
	if t.logger == nil {
		t.logger = slog.Default()
	}
	return t
}

// rec records one stage duration into the endpoint's histogram and,
// when the request carries a trace, into the trace.
func (t *telemetry) rec(ep int, st obs.Stage, d time.Duration, tr *obs.Trace) {
	t.stages[ep][st].Observe(d)
	tr.Record(st, d)
}

// Obs returns the service's telemetry registry. Collectors for
// subsystems the service composes (store timings, runtime gauges on a
// debug listener) can be registered here; GET /metrics renders it when
// the scraper asks for Prometheus text format.
func (s *Service) Obs() *obs.Registry { return s.obsReg }

// Workers reports how many requests may compute at once (the resolved
// Options.Workers) — the natural dispatch-concurrency bound for
// transports (the streaming micro-batcher) sitting in front of the
// service.
func (s *Service) Workers() int { return s.opts.Workers }

// RecordStreamStage records a transport-side stage duration (decode,
// encode) against the streaming endpoint's histograms. The stream
// listener runs outside the HTTP handler stack, so it feeds the same
// per-stage telemetry through this hook. No-op with telemetry disabled.
func (s *Service) RecordStreamStage(st obs.Stage, d time.Duration) {
	if s.tel != nil && st < obs.NumStages {
		s.tel.stages[epStream][st].Observe(d)
	}
}

// registerCollectors wires the service's state into its obs registry.
// Everything here runs at scrape time only.
func (s *Service) registerCollectors() {
	s.obsReg.Register(s.collect)
	s.obsReg.Register(collectTraining)
	s.obsReg.Register(collectBuildInfo)
}

var endpointLabels = [numEndpoints]string{
	obs.Labels("endpoint", endpointNames[epEstimate]),
	obs.Labels("endpoint", endpointNames[epBatch]),
	obs.Labels("endpoint", endpointNames[epStream]),
}

// collect renders the service's families from one metrics snapshot.
func (s *Service) collect(e *obs.Expo) {
	m := s.Metrics()
	var eps [numEndpoints]EndpointMetrics // zero until traffic has flowed
	if m.Endpoints != nil {
		eps = [...]EndpointMetrics{m.Endpoints.Estimate, m.Endpoints.EstimateBatch, m.Endpoints.EstimateStream}
	}
	e.Gauge("resserve_uptime_seconds", "Seconds since the service started.", "",
		time.Since(s.start).Seconds())
	for ep := range eps {
		l := endpointLabels[ep]
		e.Counter("resserve_requests_total", "Requests received, by endpoint.", l,
			float64(eps[ep].Requests))
		e.Counter("resserve_failures_total", "Failed requests, by endpoint.", l,
			float64(eps[ep].Failures))
		if s.tel == nil {
			continue
		}
		snap := s.tel.total[ep].Snapshot()
		e.Summary("resserve_request_duration_seconds",
			"End-to-end service latency, by endpoint.", l, &snap)
		for _, st := range obs.Stages() {
			snap := s.tel.stages[ep][st].Snapshot()
			e.Summary("resserve_stage_duration_seconds",
				"Per-stage request latency (decode, queue wait, cache probe, predict, encode).",
				obs.Labels("endpoint", endpointNames[ep], "stage", st.String()), &snap)
		}
	}
	e.Counter("resserve_batch_plans_total", "Plans carried by batch requests.", "",
		float64(m.BatchPlans))
	e.Counter("resserve_estimate_replay_hits_total",
		"POST /estimate requests answered from the response cache, undecoded.", "",
		float64(s.replayHits.Load()))
	e.Counter("resserve_estimate_replay_misses_total",
		"POST /estimate requests the response cache did not answer (stale entries included).", "",
		float64(s.replayMisses.Load()))
	e.Gauge("resserve_workers", "Requests that may compute at once.", "", float64(m.Workers))
	e.Gauge("resserve_queue_depth", "Requests waiting for a compute slot while all workers are taken.", "",
		float64(s.waiting.Load()))
	s.collectCache(e, m.Cache)
	collectModels(e, m.Models)
	s.collectFeedback(e, m.Feedback)
	s.collectStore(e)
}

func (s *Service) collectCache(e *obs.Expo, st CacheStats) {
	e.Counter("resserve_cache_hits_total", "Prediction-cache hits.", "", float64(st.Hits))
	e.Counter("resserve_cache_misses_total", "Prediction-cache misses.", "", float64(st.Misses))
	e.Gauge("resserve_cache_entries", "Live prediction-cache entries.", "", float64(st.Entries))
	e.Gauge("resserve_cache_capacity", "Prediction-cache capacity.", "", float64(st.Capacity))
	for _, sh := range s.cache.ShardStats() {
		l := obs.Labels("shard", strconv.Itoa(sh.Shard))
		e.Counter("resserve_cache_shard_hits_total", "Prediction-cache hits, by shard.", l,
			float64(sh.Hits))
		e.Counter("resserve_cache_shard_misses_total", "Prediction-cache misses, by shard.", l,
			float64(sh.Misses))
		if total := sh.Hits + sh.Misses; total > 0 {
			e.Gauge("resserve_cache_shard_hit_ratio", "Prediction-cache hit ratio, by shard.", l,
				float64(sh.Hits)/float64(total))
		}
	}
}

func collectModels(e *obs.Expo, models []ModelInfo) {
	e.Gauge("resserve_models", "Published model count.", "", float64(len(models)))
	for _, m := range models {
		e.Gauge("resserve_model_version",
			"Registry version of the serving model, by route.",
			obs.Labels("schema", m.Schema, "resource", m.Resource, "mode", m.Mode),
			float64(m.Version))
		// Info-style lineage gauge: the interesting facts ride as labels,
		// the value is always 1. Joining on (schema, resource) against the
		// version gauge answers "what is serving and where did it come from".
		e.Gauge("resserve_model_info",
			"Lineage of the serving model: producer, replaced version and training-sample count (value is always 1).",
			obs.Labels("schema", m.Schema, "resource", m.Resource, "mode", m.Mode,
				"version", strconv.FormatUint(m.Version, 10),
				"source", m.Source,
				"parent", strconv.FormatUint(m.Parent, 10),
				"train_samples", strconv.Itoa(m.TrainSamples)),
			1)
	}
}

// collectBuildInfo surfaces the binary's build metadata as an
// info-style gauge — one glance at a scrape answers "which build is
// this" without shell access to the host.
func collectBuildInfo(e *obs.Expo) {
	b := obs.BuildInfo()
	modified := ""
	if b.Revision != "" {
		modified = strconv.FormatBool(b.Dirty)
	}
	e.Gauge("resserve_build_info",
		"Build metadata of the serving binary (value is always 1).",
		obs.Labels("go_version", b.GoVersion, "path", b.Main,
			"revision", b.Revision, "modified", modified),
		1)
}

func (s *Service) collectFeedback(e *obs.Expo, routes []feedback.RouteStats) {
	loop := s.opts.Feedback
	if loop == nil {
		return
	}
	ingest := loop.IngestLatency()
	e.Summary("resserve_feedback_ingest_duration_seconds",
		"Latency of feedback-observation ingest (validate, persist, window update).", "", &ingest)
	e.Counter("resserve_feedback_rejected_total",
		"Observations rejected before ingest (invalid or over the route limit).", "",
		float64(loop.Rejected()))
	for _, r := range routes {
		l := obs.Labels("schema", r.Schema, "resource", r.Resource)
		with := func(k, v string) string {
			return obs.Labels("schema", r.Schema, "resource", r.Resource, k, v)
		}
		e.Counter("resserve_feedback_observations_total", "Observations ingested, by route.", l,
			float64(r.Observations))
		e.Gauge("resserve_feedback_buffered", "Observations buffered for retraining, by route.", l,
			float64(r.Buffered))
		if r.Window.Count > 0 {
			for _, q := range [...]struct {
				v float64
				n string
			}{{r.Window.P50, "0.5"}, {r.Window.P90, "0.9"}, {r.Window.P95, "0.95"}, {r.Window.P99, "0.99"}} {
				e.Gauge("resserve_feedback_error",
					"Rolling relative-error quantiles of served predictions, by route.",
					with("quantile", q.n), q.v)
			}
		}
		// Cumulative accuracy telemetry: the signed log-ratio error
		// distribution (ln(predicted/actual); negative = under-estimated),
		// the under/over split, and the empirical factor-band coverage.
		if lr := r.ErrorLogRatio; lr != nil {
			for _, q := range [...]struct {
				v float64
				n string
			}{{lr.P50, "0.5"}, {lr.P90, "0.9"}, {lr.P99, "0.99"}} {
				e.Gauge("resserve_feedback_error_log_ratio",
					"Signed log-ratio error quantiles ln(predicted/actual) of served predictions, by route (cumulative).",
					with("quantile", q.n), q.v)
			}
			const help = "Scored predictions by error direction (under = predicted < actual)."
			e.Counter("resserve_feedback_predictions_total", help, with("direction", "under"), float64(lr.Under))
			e.Counter("resserve_feedback_predictions_total", help, with("direction", "over"), float64(lr.Over))
		}
		if c := r.Coverage; c != nil {
			e.Counter("resserve_feedback_scored_total",
				"Scored predictions entering the coverage counters, by route.", l, float64(c.Total))
			const help = "Scored predictions whose actual landed within the factor band, by route."
			e.Counter("resserve_feedback_within_factor_total", help, with("factor", "1.5"), float64(c.Within15x))
			e.Counter("resserve_feedback_within_factor_total", help, with("factor", "2"), float64(c.Within2x))
		}
		// Drift-detector state, laid open: the recent windowed error, the
		// trigger threshold, and how far the route sits from a retrain.
		if d := r.Drift; d != nil {
			e.Gauge("resserve_feedback_drift_recent_error",
				"Windowed error at the configured drift quantile, by route.", l, d.RecentError)
			e.Gauge("resserve_feedback_drift_threshold",
				"Drift trigger level (threshold multiple x training baseline), by route.", l, d.Threshold)
			e.Gauge("resserve_feedback_drift_distance",
				"Threshold minus recent error; at or below 0 the route is past the trigger.", l,
				d.DistanceToThreshold)
			e.Gauge("resserve_feedback_retrain_eligible",
				"1 when a drift finding would start a retrain right now.", l, obs.Bool(d.RetrainEligible))
		}
		e.Gauge("resserve_feedback_drifting", "1 when the route's drift detector is firing.", l,
			obs.Bool(r.Drifting))
		e.Gauge("resserve_feedback_retraining", "1 while a retrain is in flight for the route.", l,
			obs.Bool(r.Retraining))
		e.Counter("resserve_feedback_retrains_total", "Accepted drift-triggered retrains, by route.", l,
			float64(r.Retrains))
		e.Counter("resserve_feedback_rejections_total", "Rejected retrain candidates, by route.", l,
			float64(r.Rejections))
	}
}

func (s *Service) collectStore(e *obs.Expo) {
	st := s.reg.Store()
	if st == nil {
		return
	}
	pub, restore := st.Timings()
	e.Summary("resserve_store_publish_duration_seconds",
		"Model-store snapshot publish latency.", "", &pub)
	e.Summary("resserve_store_restore_duration_seconds",
		"Model-store snapshot load/restore latency.", "", &restore)
}

// collectTraining surfaces the training pipeline's process-wide
// throughput counters — nonzero only in processes that train (resserve
// -bootstrap, feedback retrains).
func collectTraining(e *obs.Expo) {
	regions, items := par.Counters()
	e.Counter("resserve_train_regions_total",
		"Parallel training regions dispatched (process-wide).", "", float64(regions))
	e.Counter("resserve_train_items_total",
		"Parallel training loop iterations executed (process-wide).", "", float64(items))
}

// LogSummary emits one structured summary of the service's lifetime
// metrics through logger — called on graceful shutdown so short-lived
// runs leave a queryable record of what they served. Safe with
// telemetry disabled (latency quantiles are simply omitted).
func (s *Service) LogSummary(logger *slog.Logger) {
	if logger == nil {
		if s.tel != nil {
			logger = s.tel.logger
		} else {
			logger = slog.Default()
		}
	}
	m := s.Metrics()
	attrs := []slog.Attr{
		slog.Duration("uptime", time.Since(s.start)),
		slog.Uint64("requests", m.Requests),
		slog.Uint64("failures", m.Failures),
		slog.Uint64("batch_plans", m.BatchPlans),
		slog.Uint64("cache_hits", m.Cache.Hits),
		slog.Uint64("cache_misses", m.Cache.Misses),
	}
	if total := m.Cache.Hits + m.Cache.Misses; total > 0 {
		attrs = append(attrs, slog.Float64("cache_hit_ratio",
			float64(m.Cache.Hits)/float64(total)))
	}
	if s.tel != nil {
		for ep := 0; ep < numEndpoints; ep++ {
			snap := s.tel.total[ep].Snapshot()
			if snap.Count == 0 {
				continue
			}
			sum := snap.Summarize()
			attrs = append(attrs,
				slog.Duration(endpointNames[ep]+"_p50", sum.P50),
				slog.Duration(endpointNames[ep]+"_p99", sum.P99),
				slog.Duration(endpointNames[ep]+"_max", sum.Max),
			)
		}
	}
	if routes := m.Feedback; s.opts.Feedback != nil {
		var obsN, retrains uint64
		for _, r := range routes {
			obsN += r.Observations
			retrains += r.Retrains
		}
		attrs = append(attrs,
			slog.Uint64("observations", obsN),
			slog.Uint64("retrains", retrains))
		// Per-route accuracy: the cumulative signed log-ratio error
		// quantiles, so a short-lived run's shutdown line records how
		// well each model actually predicted.
		for _, r := range routes {
			if r.ErrorLogRatio == nil {
				continue
			}
			route := r.Schema + "/" + r.Resource
			attrs = append(attrs,
				slog.Float64(route+"_err_p50", r.ErrorLogRatio.P50),
				slog.Float64(route+"_err_p99", r.ErrorLogRatio.P99))
		}
	}
	logger.LogAttrs(context.Background(), slog.LevelInfo, "serve metrics summary", attrs...)
}
