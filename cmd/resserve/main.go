// Command resserve serves resource estimates over HTTP: the paper's
// stated use case (admission control, scheduling, costing in a live
// DBMS) on top of the trained SCALING estimators.
//
// Models come from restrain-produced files, published per workload
// schema and hot-swappable at runtime through POST /models — or
// trained in-process at startup with -bootstrap (handy for a demo
// without model files):
//
//	resserve -bootstrap tpch                  # train & serve tpch cpu+io
//	resserve -model tpch=cpu-model.json       # serve a trained model
//	resserve -model cpu.json -model io.json   # wildcard-schema models
//	resserve -bootstrap tpch -model-dir ./models   # allow runtime swaps
//
// Bootstrap training and feedback retrains run on the deterministic
// parallel training pipeline: -train-workers (default GOMAXPROCS)
// bounds the worker pool, and the trained models are bit-identical at
// any worker count — parallelism only moves wall-clock.
//
// With -store-dir the versioned model store is enabled and becomes the
// single durable source of truth: every publish — bootstrap training, a
// POST /models upload, a feedback retrain — persists an atomic snapshot
// (model files + checksummed manifest) in that directory, the server
// restores the latest intact snapshots at startup (so a restart resumes
// serving exactly what it last persisted, and -bootstrap is skipped for
// restored schemas), and POST /models/rollback walks snapshot history —
// rollback keeps working across restarts:
//
//	resserve -bootstrap tpch -store-dir ./models-store
//
// In a replica fleet behind cmd/resrouter, -store-sync turns the store
// attachment into follower mode — the replica serves the store's newest
// snapshots and keeps polling for newer ones, while the fleet's
// designated retrainer owns the store's write side — and
// -forward-observations ships the local observation log's segments to
// that retrainer instead of retraining locally. See the README's
// "Distributed deployment" section for the full topology.
//
// With -feedback-dir the online feedback loop is enabled: executed
// plans reported to POST /observe are persisted to a crash-safe
// observation log in that directory, per-model error windows are
// tracked, and when recent errors drift past -drift-threshold times the
// model's training-time baseline the server retrains on the logged
// observations, validates the candidate on a held-out slice, and
// hot-swaps it in — no restart, no downtime:
//
//	resserve -bootstrap tpch -feedback-dir ./obs
//
// Endpoints:
//
//	POST /estimate         {"schema","resource","timeout_ms","plan"} → estimates;
//	                       "resources": ["cpu","io"] (or "all") returns every
//	                       named resource from one feature-extraction pass,
//	                       bit-identical to the single-resource responses;
//	                       ?explain=1 adds a per-operator breakdown (model
//	                       chosen, scaled features, per-tree margins) whose
//	                       total is bit-identical to the estimate. A body
//	                       answered before — here or on the stream — is
//	                       replayed from the response cache before it is
//	                       parsed (never with ?explain=1, never an error)
//	POST /estimate/batch   {"schema","resource","timeout_ms","plans":[plan...]}
//	                       estimate up to 1024 plans in one request: one model
//	                       lookup, one worker-pool dispatch and one cache
//	                       multi-get for the whole batch, with cache misses
//	                       evaluated on the compiled (flattened) tree layout —
//	                       same predictions as /estimate, several times the
//	                       throughput at batch sizes ≥ 64
//	POST /observe          {"schema","resource","model_version","predicted","plan"}
//	                       report an executed plan (with actuals) to the
//	                       feedback loop (enabled by -feedback-dir)
//	GET  /models           published model versions
//	POST /models           {"schema","path"} → hot-swap a model file in; path is
//	                       resolved under -model-dir (endpoint disabled without it)
//	POST /models/rollback  {"schema","resource"} → revert to the prior version
//	GET  /metrics          JSON counters + per-model error gauges (the
//	                       default); with Accept: text/plain or
//	                       ?format=prometheus, a Prometheus text exposition
//	                       with per-stage latency summaries, per-shard
//	                       cache counters, queue depth and feedback gauges
//	GET  /healthz          readiness
//
// With -stream-addr the same estimates are additionally served over a
// persistent streaming transport: length-prefixed CRC-checked frames
// on plain TCP, many requests in flight per connection, and requests
// coalesced across connections into micro-batched dispatches through
// the same worker pool and cache — request bodies read by POST
// /estimate's own decoder, so each is accepted or refused in the same
// words, and responses byte-identical to POST /estimate, at a fraction
// of the per-request overhead. See the
// README's "Streaming protocol" section for the frame layout, the
// coalescing rule (send at once when nothing for the route is
// outstanding, accumulate while something is) and a client example.
//
// Observability: requests are stage-timed (decode, queue wait, cache
// probe, predict, encode) into lock-free latency histograms and carry
// X-Request-ID end to end; requests slower than -slow-trace emit one
// structured log record with the per-stage breakdown. The feedback loop
// additionally tracks signed log-ratio error quantiles, empirical
// coverage and drift state per (schema, resource), all exported through
// /metrics. -debug-addr starts a separate listener with /debug/pprof, a
// Prometheus /metrics that adds process runtime gauges, and — when the
// feedback loop is on — GET /debug/exemplars, the retained worst
// predictions with their full plans. -no-telemetry strips the stage
// timing from the hot path (counters remain).
//
// Estimate a plan produced by the workload generator:
//
//	curl -s localhost:8080/estimate -d @request.json
//
// On SIGINT/SIGTERM the server shuts down gracefully: in-flight HTTP
// requests drain (force-closed if still running at the 10s drain
// deadline), the streaming listener closes, the estimation worker pool
// stops, any in-flight retrain finishes, and the observation log is
// closed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
)

// modelFlags collects repeated -model schema=path arguments.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ",") }

func (m *modelFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var models modelFlags
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		bootstrap   = flag.String("bootstrap", "", "comma-separated schemas to train quick models for at startup (e.g. tpch)")
		bootN       = flag.Int("bootstrap-n", 128, "bootstrap training workload size")
		bootIters   = flag.Int("bootstrap-iters", 100, "bootstrap MART iterations")
		cacheSize   = flag.Int("cache", 65536, "prediction cache entries (negative disables)")
		workers     = flag.Int("workers", 0, "estimation workers (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 2*time.Second, "default per-request deadline")
		modelDir    = flag.String("model-dir", "", "directory POST /models may load model files from (empty disables the endpoint)")
		storeDir    = flag.String("store-dir", "", "versioned model-store directory; every publish persists an atomic snapshot there, startup restores the latest ones, and rollback walks snapshot history")
		storeRetain = flag.Int("store-retain", 16, "snapshots retained per schema in the model store (negative disables pruning)")
		feedbackDir = flag.String("feedback-dir", "", "observation-log directory; enables the online feedback loop (POST /observe, drift-triggered retraining)")
		trainWork   = flag.Int("train-workers", 0, "training worker pool size for -bootstrap and feedback retrains (0 = GOMAXPROCS); trained models are bit-identical at any worker count")
		driftThresh = flag.Float64("drift-threshold", 2, "retrain when the recent P90 relative error exceeds this multiple of the model's training-time baseline")
		retrainMin  = flag.Int("retrain-min-observations", 256, "minimum logged observations before a drift-triggered retrain (also the cooldown between attempts)")
		streamAddr  = flag.String("stream-addr", "", "streaming estimate listener address: persistent framed TCP with cross-connection micro-batching, responses byte-identical to POST /estimate; empty disables")
		storeSync   = flag.Duration("store-sync", 0, "follower mode: poll -store-dir at this interval and publish snapshots newer than what is served, instead of restoring once at startup; the store stays owned by the fleet's retrainer (this replica never writes pins or rollback state)")
		forwardObs  = flag.String("forward-observations", "", "base URL of the fleet's designated retrainer; observation-log segments are forwarded to its /observe/segment endpoint and no local retrainer runs (requires -feedback-dir)")
		debugAddr   = flag.String("debug-addr", "", "debug listener address exposing /debug/pprof and Prometheus /metrics (incl. process runtime gauges); empty disables")
		slowTrace   = flag.Duration("slow-trace", 500*time.Millisecond, "log a structured per-stage trace for requests at or above this latency (0 disables)")
		noTelemetry = flag.Bool("no-telemetry", false, "disable per-stage latency histograms and request traces (counters remain)")
	)
	flag.Var(&models, "model", "model to serve, as schema=path or path (wildcard schema); repeatable")
	flag.Parse()

	if len(models) == 0 && *bootstrap == "" {
		fmt.Fprintln(os.Stderr, "resserve: no -model given; defaulting to -bootstrap tpch")
		*bootstrap = "tpch"
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	serveOpts := repro.ServeOptions{
		CacheEntries:     *cacheSize,
		Workers:          *workers,
		DefaultTimeout:   *timeout,
		ModelDir:         *modelDir,
		Logger:           logger,
		SlowTrace:        *slowTrace,
		DisableTelemetry: *noTelemetry,
	}
	if *forwardObs != "" && *feedbackDir == "" {
		fatal(fmt.Errorf("-forward-observations requires -feedback-dir (the segment directory to tail)"))
	}
	var svc *repro.Service
	var loop *repro.FeedbackLoop
	fbOpts := repro.FeedbackOptions{
		Dir:             *feedbackDir,
		DriftThreshold:  *driftThresh,
		MinObservations: *retrainMin,
		TrainWorkers:    *trainWork,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "resserve: "+format+"\n", args...)
		},
	}
	switch {
	case *forwardObs != "":
		// Forwarding replica: observations land in the local log and feed
		// the error gauges, but retraining is the designated retrainer's
		// job — the forwarder below ships the segments there.
		var err error
		svc, loop, err = repro.NewServiceWithObservationLog(serveOpts, fbOpts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "resserve: observation log enabled (log %s, forwarding to %s, no local retrainer)\n",
			*feedbackDir, *forwardObs)
	case *feedbackDir != "":
		var err error
		svc, loop, err = repro.NewServiceWithFeedback(serveOpts, fbOpts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "resserve: feedback loop enabled (log %s, drift threshold %gx, retrain after %d observations)\n",
			*feedbackDir, *driftThresh, *retrainMin)
	default:
		svc = repro.NewService(serveOpts)
	}

	// The model store, when enabled, is attached before any model is
	// published so every producer below — restored snapshots aside —
	// persists through it. Restores are tracked per resource (see
	// restoreTracker): skipping bootstrap for a schema is only safe when
	// every bootstrap resource actually came back.
	restored := newRestoreTracker()
	var stopStoreSync func()
	if *storeDir != "" {
		st, err := repro.OpenModelStore(*storeDir, repro.ModelStoreOptions{
			Retain: *storeRetain,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "resserve: "+format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		if *storeSync > 0 {
			// Follower: serve the store's newest snapshots and keep polling
			// for newer ones — the retrainer owns the store's write side
			// (pins, rollback state), this replica only reads forward.
			infos, err := repro.AttachModelStoreFollower(svc, st, func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "resserve: "+format+"\n", args...)
			})
			if err != nil {
				fatal(err)
			}
			for _, info := range infos {
				logModel("synced", info, fmt.Sprintf("snapshot v%d", info.Snapshot))
				restored.mark(info.Schema, info.Resource)
			}
			stopStoreSync = startStoreSync(svc, *storeSync)
			fmt.Fprintf(os.Stderr, "resserve: model store at %s (follower, %d models synced, polling every %v)\n",
				*storeDir, len(infos), *storeSync)
		} else {
			infos, err := repro.AttachModelStore(svc, st, func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "resserve: "+format+"\n", args...)
			})
			if err != nil {
				fatal(err)
			}
			for _, info := range infos {
				logModel("restored", info, fmt.Sprintf("snapshot v%d", info.Snapshot))
				restored.mark(info.Schema, info.Resource)
			}
			fmt.Fprintf(os.Stderr, "resserve: model store at %s (%d models restored, retaining %d snapshots per schema)\n",
				*storeDir, len(infos), *storeRetain)
		}
	}

	for _, spec := range models {
		schema, path := "", spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			schema, path = spec[:i], spec[i+1:]
		}
		if restored.any(schema) {
			// The store's serving set supersedes the file: republishing
			// it would revert any retrained/uploaded model the store
			// accumulated, on every restart. Swap files in explicitly
			// via POST /models when that is really wanted.
			fmt.Fprintf(os.Stderr, "resserve: %s restored from the model store; ignoring -model %s\n",
				schemaName(schema), path)
			continue
		}
		info, err := repro.PublishModelFile(svc, schema, path)
		if err != nil {
			fatal(err)
		}
		logModel("loaded", info, path)
	}

	for _, schema := range splitList(*bootstrap) {
		missing := restored.missing(schema)
		if len(missing) == 0 {
			// The store already holds this schema's latest serving set;
			// retraining it at every restart would waste minutes and
			// discard accumulated model history.
			fmt.Fprintf(os.Stderr, "resserve: %s restored from the model store; skipping bootstrap\n", schema)
			continue
		}
		if restored.any(schema) {
			// Heal only what is absent: the restored resources may carry
			// retrained or uploaded models that a fresh bootstrap would
			// silently revert.
			fmt.Fprintf(os.Stderr, "resserve: %s partially restored from the model store; bootstrapping only %s\n",
				schema, resourceNames(missing))
		}
		if err := bootstrapSchema(svc, schema, *bootN, *bootIters, *trainWork, missing); err != nil {
			fatal(err)
		}
	}

	// Opt-in streaming listener, started only after every startup model
	// is published so the first frame in never races the registry. Its
	// counters register on the service's own metrics registry, so the
	// stream series ride GET /metrics (and the debug listener's copy)
	// alongside the HTTP ones.
	var streamSrv *repro.StreamServer
	if *streamAddr != "" {
		ss, err := repro.StartStreamServer(*streamAddr, repro.StreamServerOptions{
			Service: svc,
			Logger:  logger,
		})
		if err != nil {
			fatal(err)
		}
		streamSrv = ss
		svc.Obs().Register(ss.Collector())
		// Advertised through /healthz so a fronting resrouter discovers
		// the stream endpoint and pools connections to it.
		svc.SetStreamAddr(ss.Addr())
		fmt.Fprintf(os.Stderr, "resserve: streaming listener on %s\n", ss.Addr())
	}

	// Opt-in observation forwarder: tails the feedback log's segments
	// into the fleet's designated retrainer. Started after the service
	// exists but before traffic matters — the forwarder is read-only on
	// the log, so ordering is about shutdown (below), not startup.
	var forwarder *repro.ObservationForwarder
	if *forwardObs != "" {
		fw, err := repro.StartObservationForwarder(repro.ObservationForwarderOptions{
			Dir:    *feedbackDir,
			Target: strings.TrimRight(*forwardObs, "/"),
			Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		forwarder = fw
		fmt.Fprintf(os.Stderr, "resserve: forwarding observation segments to %s\n", *forwardObs)
	}

	// Opt-in debug listener: pprof and a Prometheus exposition combining
	// the service's metric families with process runtime gauges. A
	// separate listener so profiling endpoints never ride the serving
	// port.
	if *debugAddr != "" {
		dreg := obs.NewRegistry()
		dreg.Register(svc.Obs().Collector())
		sampler := obs.NewRuntimeSampler(10 * time.Second)
		defer sampler.Stop()
		dreg.Register(sampler.Collector("resserve_process_"))
		var extra []obs.DebugHandler
		routes := "/debug/pprof, /metrics"
		if loop != nil {
			// Worst-prediction exemplars live on the debug listener, not
			// the serving port: they carry full plan payloads, which is
			// operator-facing introspection, not client API surface.
			extra = append(extra, obs.DebugHandler{
				Pattern: "GET /debug/exemplars",
				Handler: func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					enc := json.NewEncoder(w)
					enc.SetIndent("", "  ")
					_ = enc.Encode(loop.Exemplars())
				},
			})
			routes += ", /debug/exemplars"
		}
		ds, err := obs.StartDebugServer(*debugAddr, dreg, extra...)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "resserve: debug listener on %s (%s)\n", ds.Addr(), routes)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Graceful shutdown on SIGINT/SIGTERM, in dependency order: stop
	// accepting and drain in-flight HTTP handlers (force-closing any
	// still running when the drain deadline expires — see drainHTTP),
	// then the streaming listener, then the estimation worker pool,
	// then the feedback loop — which waits for any retrain in flight
	// and closes the observation log, so a signal never kills the
	// process mid-write.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		fmt.Fprintf(os.Stderr, "resserve: %s received, draining\n", s)
		if forced, err := drainHTTP(srv, 10*time.Second); forced {
			fmt.Fprintf(os.Stderr, "resserve: drain deadline expired (%v); connections force-closed\n", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "resserve: listening on %s\n", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	// Shutdown makes ListenAndServe return before active handlers have
	// drained; wait for the shutdown goroutine so in-flight requests get
	// their responses.
	<-drained
	if streamSrv != nil {
		// The streaming listener closes after HTTP drains and before the
		// service: its connections tear down, and any dispatch already
		// in the pool completes against a still-live service.
		streamSrv.Close()
	}
	if stopStoreSync != nil {
		stopStoreSync()
	}
	svc.Close()
	// Final metrics summary: one structured record of what this process
	// served (uptime, totals, per-endpoint p50/p99, cache hit ratio) —
	// the post-mortem breadcrumb for short-lived or crashed-over runs.
	svc.LogSummary(logger)
	if loop != nil {
		if err := loop.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "resserve: closing feedback log: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "resserve: feedback log flushed")
	}
	if forwarder != nil {
		// The loop above closed the log; one final synchronous pass
		// ships whatever was appended before that, so a clean shutdown
		// leaves no observation behind for the retrainer.
		forwarder.Close()
		if n, err := forwarder.ForwardNow(); err != nil {
			fmt.Fprintf(os.Stderr, "resserve: final observation drain: %v\n", err)
		} else if n > 0 {
			fmt.Fprintf(os.Stderr, "resserve: final observation drain forwarded %d records\n", n)
		}
	}
	fmt.Fprintln(os.Stderr, "resserve: shutdown complete")
}

// bootstrapSchema trains quick estimators for the given resources of a
// schema and publishes them — a self-contained serving setup with no
// model files. All resources train in one parallel pass: every
// (resource, operator, candidate scale-set) fit is an independent job
// on the training pool, so bootstrap wall-clock scales with
// -train-workers while producing models bit-identical to sequential
// training.
func bootstrapSchema(svc *repro.Service, schema string, n, iters, workers int, resources []repro.Resource) error {
	fmt.Fprintf(os.Stderr, "resserve: bootstrapping %s %s models (%d queries, %d iterations)...\n",
		schema, resourceNames(resources), n, iters)
	qs, err := repro.GenerateWorkload(repro.WorkloadOptions{Schema: schema, N: n, Seed: 1})
	if err != nil {
		return err
	}
	repro.Execute(qs)
	ests, err := repro.TrainSet(qs, repro.TrainOptions{
		BoostingIterations: iters,
		SkipScaleSelection: true,
		// Served models get an out-of-sample drift baseline so the
		// feedback loop's detector is calibrated, not hair-triggered.
		BaselineProbe: true,
		Workers:       workers,
	}, resources...)
	if err != nil {
		return err
	}
	for _, est := range ests {
		logModel("trained", repro.PublishAs(svc, schema, est, "bootstrap"), "")
	}
	return nil
}

// startStoreSync polls the attached model store and publishes snapshots
// newer than what the registry serves — the follower's read-forward
// loop. Returns a stop function that waits for a poll in flight.
func startStoreSync(svc *repro.Service, every time.Duration) func() {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				infos, err := repro.SyncFromModelStore(svc)
				if err != nil {
					fmt.Fprintf(os.Stderr, "resserve: store sync: %v\n", err)
					continue
				}
				for _, info := range infos {
					logModel("synced", info, fmt.Sprintf("snapshot v%d", info.Snapshot))
				}
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

func resourceNames(resources []repro.Resource) string {
	names := make([]string, len(resources))
	for i, r := range resources {
		names[i] = r.String()
	}
	return strings.Join(names, "+")
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func schemaName(schema string) string {
	if schema == "" {
		return "*"
	}
	return schema
}

func logModel(verb string, info repro.ModelInfo, path string) {
	schema := schemaName(info.Schema)
	suffix := ""
	if path != "" {
		suffix = " from " + path
	}
	fmt.Fprintf(os.Stderr, "resserve: %s %s/%s model v%d (%d candidates)%s\n",
		verb, schema, info.Resource, info.Version, info.NumModels, suffix)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "resserve:", err)
	os.Exit(1)
}
