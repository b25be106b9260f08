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
// single durable source of truth: every publish — bootstrap training
// (one snapshot per schema), a POST /models upload (500 if its write
// fails), a feedback retrain — persists an atomic snapshot (model files
// + checksummed manifest) in that directory, the server restores the
// latest intact snapshots at startup (so a restart resumes serving
// exactly what it last persisted, and -bootstrap is skipped for
// restored schemas), and POST /models/rollback returns to the newest
// older snapshot that loads — rollback keeps working across restarts:
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
//	                       lookup, one compute slot and one cache
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
// the same compute slots and cache — request bodies read by POST
// /estimate's own decoder, so each is accepted or refused in the same
// words, and responses byte-identical to POST /estimate, at a fraction
// of the per-request overhead. See the
// README's "Streaming protocol" section for the frame layout, the
// coalescing rule (send at once when nothing for the route is
// outstanding, accumulate while something is) and a client example.
//
// Observability: requests are stage-timed (decode, the wait for one of
// -workers compute slots, cache probe, predict, encode) into lock-free
// latency histograms and carry X-Request-ID end to end; requests slower
// than -slow-trace emit one structured log record with the per-stage
// breakdown. The feedback loop
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
// deadline), the streaming listener closes, the service refuses new
// estimates, any in-flight retrain finishes, and the observation log is
// closed.
//
// main parses the command line with parseFlags and hands the result to
// run, which starts every configured piece, serves until a signal
// arrives on its stop channel, and tears down in dependency order. A
// failure part-way through startup is returned from run after what was
// already started is closed. Tests drive run directly, with their own
// stop channel and a ready hook that receives the bound addresses.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

// modelFlags collects repeated -model schema=path arguments.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ",") }

func (m *modelFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// config is the parsed command line. Flags that configure a subsystem
// are bound straight into its options; the rest select what run starts.
type config struct {
	addr, streamAddr, debugAddr string
	models                      modelFlags
	bootstrap                   string
	bootN, bootIters            int
	storeDir                    string
	storeSync                   time.Duration
	forwardObs                  string
	serve                       serve.Options
	feedback                    feedback.Options
	store                       store.Options
}

// logf writes one "resserve: " line to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "resserve: "+format+"\n", args...)
}

// parseFlags parses args (without the program name) and applies the
// startup rules. Usage and errors go to stderr.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("resserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.bootstrap, "bootstrap", "", "comma-separated schemas to train quick models for at startup (e.g. tpch)")
	fs.IntVar(&cfg.bootN, "bootstrap-n", 128, "bootstrap training workload size")
	fs.IntVar(&cfg.bootIters, "bootstrap-iters", 100, "bootstrap MART iterations")
	fs.IntVar(&cfg.serve.CacheEntries, "cache", 65536, "prediction cache entries (negative disables)")
	fs.IntVar(&cfg.serve.Workers, "workers", 0, "estimate requests computing at once (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.serve.DefaultTimeout, "timeout", 2*time.Second, "default per-request deadline")
	fs.StringVar(&cfg.serve.ModelDir, "model-dir", "", "directory POST /models may load model files from (empty disables the endpoint)")
	fs.StringVar(&cfg.storeDir, "store-dir", "", "versioned model-store directory; every publish persists an atomic snapshot there, startup restores the latest ones, and rollback walks snapshot history")
	fs.IntVar(&cfg.store.Retain, "store-retain", 16, "snapshots retained per schema in the model store (negative disables pruning)")
	fs.StringVar(&cfg.feedback.Dir, "feedback-dir", "", "observation-log directory; enables the online feedback loop (POST /observe, drift-triggered retraining)")
	fs.IntVar(&cfg.feedback.TrainWorkers, "train-workers", 0, "training worker pool size for -bootstrap and feedback retrains (0 = GOMAXPROCS); trained models are bit-identical at any worker count")
	fs.Float64Var(&cfg.feedback.DriftThreshold, "drift-threshold", 2, "retrain when the recent P90 relative error exceeds this multiple of the model's training-time baseline")
	fs.IntVar(&cfg.feedback.MinObservations, "retrain-min-observations", 256, "minimum logged observations before a drift-triggered retrain (also the cooldown between attempts)")
	fs.StringVar(&cfg.streamAddr, "stream-addr", "", "streaming estimate listener address: persistent framed TCP with cross-connection micro-batching, responses byte-identical to POST /estimate; empty disables")
	fs.DurationVar(&cfg.storeSync, "store-sync", 0, "follower mode: poll -store-dir at this interval and publish snapshots newer than what is served, instead of restoring once at startup; the store stays owned by the fleet's retrainer (a poll never writes the serving record or a snapshot, but a POST /models or /models/rollback this replica receives, as from a router fan-out, persists a snapshot and rewrites the serving record, and the next poll reinstalls the newest snapshot over a rollback)")
	fs.StringVar(&cfg.forwardObs, "forward-observations", "", "base URL of the fleet's designated retrainer; observation-log segments are forwarded to its /observe/segment endpoint and no local retrainer runs (requires -feedback-dir)")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "debug listener address exposing /debug/pprof and Prometheus /metrics (incl. process runtime gauges); empty disables")
	fs.DurationVar(&cfg.serve.SlowTrace, "slow-trace", 500*time.Millisecond, "log a structured per-stage trace for requests at or above this latency (0 disables)")
	fs.BoolVar(&cfg.serve.DisableTelemetry, "no-telemetry", false, "disable per-stage latency histograms and request traces (counters remain)")
	fs.Var(&cfg.models, "model", "model to serve, as schema=path or path (wildcard schema); repeatable")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if len(cfg.models) == 0 && cfg.bootstrap == "" {
		fmt.Fprintln(stderr, "resserve: no -model given; defaulting to -bootstrap tpch")
		cfg.bootstrap = "tpch"
	}
	if cfg.forwardObs != "" && cfg.feedback.Dir == "" {
		err := errors.New("-forward-observations requires -feedback-dir (the segment directory to tail)")
		fmt.Fprintln(stderr, "resserve:", err)
		return config{}, err
	}
	cfg.feedback.Logf = logf
	cfg.store.Logf = logf
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}
	// Signals are caught only once the listeners are up: one arriving
	// during bootstrap training still ends the process at once.
	sig := make(chan os.Signal, 1)
	if err := run(cfg, sig, func(string, string) { signal.Notify(sig, os.Interrupt, syscall.SIGTERM) }); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// run starts the service and everything cfg enables, serves until a
// signal arrives on stop, then drains and tears down. ready, when
// non-nil, is told the bound HTTP and stream addresses once both
// listeners are up. Every piece is closed by a deferred call too, so a
// failed start returns with nothing left running; the closes are
// idempotent, which lets the orderly shutdown below go first.
func run(cfg config, stop <-chan os.Signal, ready func(httpAddr, streamAddr string)) error {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	cfg.serve.Logger = logger
	reg := serve.NewRegistry()
	cfg.serve.Registry = reg
	var loop *feedback.Loop
	if cfg.feedback.Dir != "" {
		if cfg.forwardObs == "" {
			// The loop's retrainer publishes into the registry the
			// service routes from. A forwarding replica leaves it unset:
			// observations land in the local log and feed the error
			// gauges, and retraining is the designated retrainer's job —
			// the forwarder below ships the segments there.
			cfg.feedback.Publisher = reg
		}
		var err error
		if loop, err = feedback.New(cfg.feedback); err != nil {
			return err
		}
		defer loop.Close()
		cfg.serve.Feedback = loop
		if cfg.forwardObs != "" {
			logf("observation log enabled (log %s, forwarding to %s, no local retrainer)", cfg.feedback.Dir, cfg.forwardObs)
		} else {
			logf("feedback loop enabled (log %s, drift threshold %gx, retrain after %d observations)",
				cfg.feedback.Dir, cfg.feedback.DriftThreshold, cfg.feedback.MinObservations)
		}
	}
	svc := serve.New(cfg.serve)
	defer svc.Close()

	// The model store, when enabled, is attached before any model is
	// published so every producer below — restored snapshots aside —
	// persists through it. What came back is tracked per resource (see
	// unrestored): skipping bootstrap for a schema is only safe when
	// every bootstrap resource actually came back.
	var restored []serve.ModelInfo
	var stopStoreSync func()
	if cfg.storeDir != "" {
		st, err := store.Open(cfg.storeDir, cfg.store)
		if err != nil {
			return err
		}
		reg.AttachStore(st, logf)
		if cfg.storeSync > 0 {
			// Follower: serve the store's newest snapshots and keep polling
			// for newer ones — the retrainer owns the store's write side
			// (snapshots, the serving record), this replica only reads
			// forward.
			if restored, err = reg.SyncFromStore(); err != nil {
				return err
			}
			for _, info := range restored {
				logModel("synced", info, fmt.Sprintf("snapshot v%d", info.Snapshot))
			}
			stopStoreSync = startStoreSync(reg, cfg.storeSync)
			defer stopStoreSync()
			logf("model store at %s (follower, %d models synced, polling every %v)", cfg.storeDir, len(restored), cfg.storeSync)
		} else {
			if restored, err = reg.RestoreFromStore(); err != nil {
				return err
			}
			for _, info := range restored {
				logModel("restored", info, fmt.Sprintf("snapshot v%d", info.Snapshot))
			}
			logf("model store at %s (%d models restored, retaining %d snapshots per schema)", cfg.storeDir, len(restored), cfg.store.Retain)
		}
	}

	for _, spec := range cfg.models {
		schema, path := "", spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			schema, path = spec[:i], spec[i+1:]
		}
		if len(unrestored(restored, schema)) < len(plan.ResourceKinds()) {
			// The store's serving set supersedes the file: republishing
			// it would revert any retrained/uploaded model the store
			// accumulated, on every restart. Swap files in explicitly
			// via POST /models when that is really wanted.
			logf("%s restored from the model store; ignoring -model %s", schemaName(schema), path)
			continue
		}
		info, err := reg.PublishFile(schema, path)
		if err != nil {
			return err
		}
		logModel("loaded", info, path)
	}

	for _, schema := range splitList(cfg.bootstrap) {
		missing := unrestored(restored, schema)
		if len(missing) == 0 {
			// The store already holds this schema's latest serving set;
			// retraining it at every restart would waste minutes and
			// discard accumulated model history.
			logf("%s restored from the model store; skipping bootstrap", schema)
			continue
		}
		if len(missing) < len(plan.ResourceKinds()) {
			// Heal only what is absent: the restored resources may carry
			// retrained or uploaded models that a fresh bootstrap would
			// silently revert.
			logf("%s partially restored from the model store; bootstrapping only %s", schema, resourceNames(missing))
		}
		if err := bootstrapSchema(reg, schema, cfg.bootN, cfg.bootIters, cfg.feedback.TrainWorkers, missing); err != nil {
			return err
		}
	}

	// Opt-in streaming listener, started only after every startup model
	// is published so the first frame in never races the registry. Its
	// counters register on the service's own metrics registry, so the
	// stream series ride GET /metrics (and the debug listener's copy)
	// alongside the HTTP ones.
	var streamSrv *stream.Server
	streamAddr := ""
	if cfg.streamAddr != "" {
		var err error
		if streamSrv, err = stream.Start(cfg.streamAddr, stream.Options{Service: svc, Logger: logger}); err != nil {
			return err
		}
		defer streamSrv.Close()
		svc.Obs().Register(streamSrv.Collector())
		// Advertised through /healthz so a fronting resrouter discovers
		// the stream endpoint and pools connections to it.
		streamAddr = streamSrv.Addr()
		svc.SetStreamAddr(streamAddr)
		logf("streaming listener on %s", streamAddr)
	}

	// Opt-in observation forwarder: tails the feedback log's segments
	// into the fleet's designated retrainer. Started after the service
	// exists but before traffic matters — the forwarder is read-only on
	// the log, so ordering is about shutdown (below), not startup.
	var forwarder *cluster.Forwarder
	if cfg.forwardObs != "" {
		var err error
		forwarder, err = cluster.NewForwarder(cluster.ForwarderOptions{
			Dir:    cfg.feedback.Dir,
			Target: strings.TrimRight(cfg.forwardObs, "/"),
			Logger: logger,
		})
		if err != nil {
			return err
		}
		defer forwarder.Close()
		logf("forwarding observation segments to %s", cfg.forwardObs)
	}

	// Opt-in debug listener: pprof and a Prometheus exposition combining
	// the service's metric families with process runtime gauges. A
	// separate listener so profiling endpoints never ride the serving
	// port.
	if cfg.debugAddr != "" {
		dreg := obs.NewRegistry()
		dreg.Register(svc.Obs().Collector())
		dreg.Register(obs.RuntimeCollector("resserve_process_"))
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
		ds, err := obs.StartDebugServer(cfg.debugAddr, dreg, extra...)
		if err != nil {
			return err
		}
		defer ds.Close()
		logf("debug listener on %s (%s)", ds.Addr(), routes)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := serve.NewHTTPServer(svc.Handler())
	// Graceful shutdown on a signal, in dependency order: stop
	// accepting and drain in-flight HTTP handlers (force-closing any
	// still running when the drain deadline expires — see
	// serve.DrainHTTP), then the streaming listener, then the service —
	// which refuses new estimates — then the feedback loop, which waits
	// for any retrain in flight and closes the observation log, so a
	// signal never kills the process mid-write.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		s := <-stop
		logf("%s received, draining", s)
		if err := serve.DrainHTTP(srv, 10*time.Second); err != nil {
			logf("drain deadline expired (%v); connections force-closed", err)
		}
	}()

	if ready != nil {
		ready(ln.Addr().String(), streamAddr)
	}
	logf("listening on %s", cfg.addr)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	// Shutdown makes Serve return before active handlers have drained;
	// wait for the shutdown goroutine so in-flight requests get their
	// responses.
	<-drained
	if streamSrv != nil {
		// The streaming listener closes after HTTP drains and before the
		// service: its connections tear down, and any dispatch already
		// computing completes against a still-live service.
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
			return fmt.Errorf("closing feedback log: %w", err)
		}
		logf("feedback log flushed")
	}
	if forwarder != nil {
		// The loop above closed the log; one final synchronous pass
		// ships whatever was appended before that, so a clean shutdown
		// leaves no observation behind for the retrainer.
		forwarder.Close()
		if n, err := forwarder.ForwardNow(); err != nil {
			logf("final observation drain: %v", err)
		} else if n > 0 {
			logf("final observation drain forwarded %d records", n)
		}
	}
	logf("shutdown complete")
	return nil
}

// bootstrapSchema trains quick estimators for the given resources of a
// schema and publishes them — a self-contained serving setup with no
// model files. With a store attached they persist as one snapshot, and
// a failed write fails the bootstrap. All resources train in one
// parallel pass: every (resource, operator, candidate scale-set) fit is
// an independent job on the training pool, so bootstrap wall-clock
// scales with -train-workers while producing models bit-identical to
// sequential training.
//
// Served models get an out-of-sample drift baseline, so the feedback
// loop's detector is calibrated rather than hair-triggered: one more
// parallel pass trains throwaway models on 4/5 of the plans and
// evaluates them on the held-out 1/5 (roughly doubling training time),
// while the published models still train on every plan. The cheap
// in-sample error, which understates real error, is the fallback.
func bootstrapSchema(reg *serve.Registry, schema string, n, iters, workers int, resources []plan.ResourceKind) error {
	logf("bootstrapping %s %s models (%d queries, %d iterations)...", schema, resourceNames(resources), n, iters)
	qs, err := repro.GenerateWorkload(repro.WorkloadOptions{Schema: schema, N: n, Seed: 1})
	if err != nil {
		return err
	}
	repro.Execute(qs)
	plans := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		plans[i] = q.Plan
	}
	cfg := core.DefaultConfig()
	if iters > 0 {
		cfg.Mart.Iterations = iters
	}
	cfg.Workers = workers
	// A nil scale table is the paper's §6.2 selection, so bootstrap
	// serves the same models repro.TrainSet trains at these settings.
	ests, err := core.TrainSet(plans, resources, nil, cfg)
	if err != nil {
		return err
	}
	// The probe holds out every fifth plan and needs at least two.
	var hold, rest []*plan.Plan
	for i, p := range plans {
		if i%5 == 4 {
			hold = append(hold, p)
		} else {
			rest = append(rest, p)
		}
	}
	var probes map[plan.ResourceKind]*core.Estimator
	if len(hold) >= 2 {
		probes, _ = core.TrainSet(rest, resources, nil, cfg)
	}
	set := make([]*core.Estimator, len(resources))
	for i, r := range resources {
		set[i] = ests[r]
		if probe := probes[r]; probe != nil {
			b := probe.EvalPlans(hold)
			set[i].Baseline = &b
		} else {
			set[i].SetBaseline(plans)
		}
	}
	infos, err := reg.PublishSet(schema, "bootstrap", set...)
	for _, info := range infos {
		logModel("trained", info, "")
	}
	return err
}

// startStoreSync polls the attached model store and publishes snapshots
// newer than what the registry serves — the follower's read-forward
// loop. Returns a stop function, safe to call more than once, that
// waits for a poll in flight.
func startStoreSync(reg *serve.Registry, every time.Duration) func() {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				infos, err := reg.SyncFromStore()
				if err != nil {
					logf("store sync: %v", err)
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
	return sync.OnceFunc(func() {
		close(quit)
		<-done
	})
}

func resourceNames(resources []plan.ResourceKind) string {
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

func logModel(verb string, info serve.ModelInfo, path string) {
	suffix := ""
	if path != "" {
		suffix = " from " + path
	}
	logf("%s %s/%s model v%d (%d candidates)%s", verb, schemaName(info.Schema), info.Resource, info.Version, info.NumModels, suffix)
}
