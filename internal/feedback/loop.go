package feedback

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stats"
)

// Loop is the online feedback controller: Observe ingests one executed
// plan (persisting it to the observation log and updating the rolling
// error windows), the drift detector runs inline every checkEvery
// observations, and drift findings hand a buffer snapshot to a
// background retrainer that publishes through the Publisher.
//
// Concurrency: Observe is safe for concurrent use (the HTTP layer calls
// it from many handlers). Log appends take the log's lock; window and
// buffer state is guarded by one mutex; at most one retrain per route
// runs at a time, on its own goroutine, against a private copy of the
// buffer. Close waits for in-flight retrains and closes the log.
type Loop struct {
	opts Options
	log  *Log // nil when persistence is disabled

	mu     sync.Mutex
	routes map[routeKey]*routeState
	closed bool

	wg sync.WaitGroup // in-flight retrains

	// Telemetry: ingest latency of accepted observations (validate +
	// log append + window/buffer update) and the count rejected before
	// ingest. Read by the serving layer's /metrics collectors.
	ingestHist obs.Histogram
	rejected   atomic.Uint64

	// exemplars keeps the top-K worst mispredictions for
	// GET /debug/exemplars — see exemplars.go.
	exemplars exemplarStore
}

// New opens a feedback loop. When opts.Dir is set, the observation log
// is opened (recovering a crash-torn tail) and replayed into the
// in-memory windows and retraining buffers so a restarted server
// resumes with its accumulated evidence.
func New(opts Options) (*Loop, error) {
	l := &Loop{opts: opts.withDefaults(), routes: make(map[routeKey]*routeState)}
	if l.opts.Dir != "" {
		log, err := OpenLog(LogOptions{Dir: l.opts.Dir})
		if err != nil {
			return nil, err
		}
		l.log = log
		// Collect, then ingest in timestamp order: concurrent Observes
		// stamp before they take the log's lock, so log order is only
		// nearly time order, and a directory from when the log had
		// several writers replays writer by writer. The windows/buffers
		// must re-warm with the true most-recent tail. Memory is bounded
		// by the log's retention.
		var replayed []*Observation
		n, err := l.log.Replay(func(obs *Observation) error {
			replayed = append(replayed, obs)
			return nil
		})
		if err != nil {
			l.log.Close()
			return nil, err
		}
		sort.SliceStable(replayed, func(i, j int) bool {
			return replayed[i].UnixNanos < replayed[j].UnixNanos
		})
		for _, obs := range replayed {
			l.ingest(obs, Served{}, false)
		}
		if n > 0 {
			l.opts.logf("feedback: replayed %d observations from %s", n, l.opts.Dir)
		}
	}
	return l, nil
}

// Served carries what the serving layer already holds for an observed
// plan — its per-operator predictions and the plan's wire JSON — so
// ingest need neither walk the model for values the prediction cache
// holds nor re-encode the plan for the log.
type Served struct {
	// Version is the registry version of the model that produced
	// Operators. Ingest uses them only while that version is still the
	// route's current one and recomputes otherwise (a hot-swap between
	// the serving layer's lookup and ingest). Zero means none served.
	Version uint64
	// Operators are the predictions for the plan's nodes in preorder,
	// bit-identical to the model's Estimator.PredictVector. Like Wire,
	// they stay the caller's: ingest reads them during the call only.
	Operators []float64
	// Wire, when not nil, is the JSON the observation's plan was
	// decoded from; the log records these bytes instead of re-encoding
	// the plan. They may alias a buffer the caller reuses once the call
	// returns, so they go no further than the log append — never into
	// the Observation the retraining buffer keeps.
	Wire []byte
}

// Observe ingests one observation: validate, persist, update error
// windows, and run the drift check. Invalid observations are rejected
// before they can reach the log or the retrainer. The observation
// struct is copied (the caller's is never written to); the Plan it
// points at becomes loop-owned — see Observation.Plan.
func (l *Loop) Observe(obs *Observation) error { return l.ObserveServed(obs, Served{}) }

// ObserveServed is Observe for a caller that already holds the current
// model's per-operator predictions for the plan.
func (l *Loop) ObserveServed(obs *Observation, served Served) error {
	start := time.Now()
	err := l.observe(obs, served)
	if err == nil {
		l.ingestHist.Observe(time.Since(start))
	} else if errors.Is(err, ErrInvalid) {
		l.rejected.Add(1)
	}
	return err
}

// IngestLatency snapshots the ingest-latency histogram of accepted
// observations.
func (l *Loop) IngestLatency() obs.HistogramSnapshot { return l.ingestHist.Snapshot() }

// Rejected counts observations rejected before ingest (malformed, or a
// new schema past the route limit).
func (l *Loop) Rejected() uint64 { return l.rejected.Load() }

func (l *Loop) observe(obs *Observation, served Served) error {
	if err := obs.validate(); err != nil {
		return err
	}
	o := *obs
	if o.UnixNanos == 0 {
		o.UnixNanos = time.Now().UnixNano()
	}
	l.mu.Lock()
	closed := l.closed
	_, known := l.routes[routeKey{schema: o.Schema, resource: o.Resource}]
	atCap := !known && len(l.routes) >= maxRoutes
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if atCap {
		// Reject before the log sees it: a sprayed schema must not be
		// persisted and replayed into memory on every restart either.
		// (Concurrent first-time routes can overshoot the bound by the
		// number of in-flight Observes; ingest re-checks under the lock.)
		return fmt.Errorf("%w: route limit (%d) reached, rejecting new schema %q",
			ErrInvalid, maxRoutes, o.Schema)
	}
	// Durability first: the log is the source of truth the windows and
	// buffers are rebuilt from on restart. An Observe racing Close gets
	// ErrClosed from the log here (the closed re-check in ingest keeps
	// the retrainer from spawning after Close's wait).
	if l.log != nil {
		if err := l.log.appendWire(&o, served.Wire); err != nil {
			return err
		}
	}
	l.ingest(&o, served, true)
	return nil
}

// ingest updates in-memory state for obs. check=false during replay:
// replayed observations warm the windows and buffers but never trigger
// retrains (the stored predictions came from models that may since have
// been replaced; fresh traffic re-confirms drift within checkEvery
// observations).
func (l *Loop) ingest(obs *Observation, served Served, check bool) {
	key := routeKey{schema: obs.Schema, resource: obs.Resource}
	actual := obs.Actual()

	// Resolve the current model once, outside the loop mutex: per-node
	// predictions feed the per-operator gauges, and their sum stands in
	// for Predicted when the caller did not supply one.
	var est *core.Estimator
	var version uint64
	if l.opts.Publisher != nil {
		est, version, _ = l.opts.Publisher.CurrentEstimator(obs.Schema, obs.Resource)
	}
	predicted := obs.Predicted
	// A report carrying a prediction from a version that has since been
	// replaced (in-flight executions straddling a hot-swap) must not be
	// charged to the current model's window — that would refill a
	// freshly-reset window with the old model's errors and re-trigger
	// drift against a model that is actually accurate. Recompute against
	// the current model below instead.
	if predicted > 0 && obs.ModelVersion != 0 && version != 0 && obs.ModelVersion != version {
		predicted = 0
	}
	// The per-operator samples of a plan of up to len(opBuf) operators
	// stay on the stack.
	var opBuf [32]opSample
	var opErrs []opSample
	if est != nil {
		sc := opScorer{est: est, res: obs.Resource}
		if served.Version == version {
			sc.preds = served.Operators
		}
		var ok bool
		if opErrs, ok = sc.walk(opBuf[:0], obs.Plan.Root, nil); !ok || sc.preds != nil && len(opErrs) != len(sc.preds) {
			// The served predictions do not fit the plan: score it
			// against the model instead.
			sc = opScorer{est: est, res: obs.Resource}
			opErrs, _ = sc.walk(opBuf[:0], obs.Plan.Root, nil)
		}
		if predicted <= 0 {
			predicted = sc.sum
		}
	}

	var startRetrain bool
	var retrainObs []*Observation
	var recentQ float64
	l.mu.Lock()
	if _, ok := l.routes[key]; !ok && len(l.routes) >= maxRoutes {
		// Authoritative route bound (Observe pre-checks; replay of a log
		// holding more routes, which Append never checks, lands here).
		l.mu.Unlock()
		return
	}
	st := l.route(key)
	st.count++
	// The windows describe one serving version. When the model changed
	// out-of-band — POST /models, a rollback, another publisher — the
	// accumulated errors belong to the replaced version; comparing them
	// against the new model's baseline could fire a drift retrain that
	// immediately overrides an operator's deliberate swap. Reset and
	// measure the new version on its own traffic. Only a version
	// *advance* resets: an in-flight straggler that resolved the old
	// model just before a swap must not wipe the new model's samples
	// backwards — its errors are simply skipped as stale. (A 0 → v
	// transition is not a swap: it is the first model appearing after
	// windows were warmed from the log or from client-supplied
	// predictions.)
	if version > st.seenVersion {
		if st.seenVersion != 0 {
			st.resetWindows()
		}
		st.seenVersion = version
	}
	staleResolve := version != 0 && version < st.seenVersion
	// A prediction that overflowed has no relative error: scored, it
	// would put a NaN in the window and disarm drift, which is what
	// Observation.validate keeps a client-sent prediction from doing.
	scored := predicted > 0 && !math.IsInf(predicted, 1) && !staleResolve
	if scored {
		st.window.Add(stats.L1RelErr(predicted, actual))
		// Accuracy telemetry: the signed log-ratio histogram and the
		// empirical-coverage counters are cumulative (Prometheus-style),
		// so unlike the windows they survive version swaps and describe
		// the route's whole history.
		st.errHist.ObserveRatio(predicted, actual)
		st.covTotal++
		if ratio := factorError(predicted, actual); ratio <= 1.5 {
			st.cov15++
			st.cov20++
		} else if ratio <= 2 {
			st.cov20++
		}
	}
	if !staleResolve {
		for _, s := range opErrs {
			if math.IsInf(s.pred, 0) || math.IsNaN(s.pred) {
				continue
			}
			w, ok := st.perOp[s.kind]
			if !ok {
				w = stats.NewRolling(perOpWindowSize)
				st.perOp[s.kind] = w
			}
			w.Add(s.err)
			st.opHist(s.kind).ObserveRatio(s.pred, s.act)
		}
	}
	st.push(obs, l.bufferCap())
	if check && !l.closed && st.count%checkEvery == 0 {
		st.drifting, recentQ = l.drift(st, est)
		if st.drifting && l.retrainEligible(st) {
			st.retraining = true
			st.lastAttempt = st.count
			startRetrain = true
			retrainObs = st.buffered()
			// Register the retrain while still holding the mutex: Close
			// flips closed under the same mutex before it waits on the
			// WaitGroup, so either this Add is visible to that Wait or
			// the closed check above suppressed the spawn — never an Add
			// racing a returned Wait.
			l.wg.Add(1)
		}
	}
	l.mu.Unlock()

	// Worst-prediction exemplars: outside the loop mutex (plan encoding
	// is not free), gated by a cheap rank pre-check so steady accurate
	// traffic pays two float ops and one short lock.
	if scored {
		absLR := math.Abs(math.Log(predicted / actual))
		if l.exemplars.qualifies(absLR) {
			mv := obs.ModelVersion
			if mv == 0 || predicted != obs.Predicted {
				mv = version
			}
			e := &Exemplar{
				Schema:       obs.Schema,
				Resource:     obs.Resource.String(),
				RequestID:    obs.RequestID,
				ModelVersion: mv,
				Predicted:    predicted,
				Actual:       actual,
				AbsLogRatio:  absLR,
				UnixNanos:    obs.UnixNanos,
			}
			if wire, err := plan.EncodeJSON(obs.Plan); err == nil {
				e.Plan = wire
			}
			if est != nil {
				vecs := features.ExtractPlan(obs.Plan, est.Mode)
				e.Nodes = make([]ExemplarNode, 0, len(opErrs))
				for i := range opErrs {
					e.Nodes = append(e.Nodes, ExemplarNode{
						Op:        opErrs[i].kind.String(),
						Features:  append([]float64(nil), vecs[i][:]...),
						Predicted: opErrs[i].pred,
						Actual:    opErrs[i].act,
					})
				}
			}
			l.exemplars.offer(e)
		}
	}

	if startRetrain {
		l.opts.logf("feedback: %s/%s drift detected (recent p90 err %.3f vs baseline %.3f), retraining on %d observations",
			key.schema, key.resource, recentQ, driftBaseline(est), len(retrainObs))
		go l.retrain(key, est, version, retrainObs)
	}
}

type opSample struct {
	kind      plan.OpKind
	err       float64
	pred, act float64
}

// opScorer scores an observed plan's operators in one preorder walk:
// each node's prediction — the served one, or the model's when preds is
// nil — against its actual, with the predictions' sum.
type opScorer struct {
	est   *core.Estimator
	res   plan.ResourceKind
	preds []float64
	sum   float64
}

// walk appends the samples of n and every node below it to out; parent
// is n's parent, nil at the root. It reports false when the served
// predictions run out before the plan does.
func (s *opScorer) walk(out []opSample, n, parent *plan.Node) ([]opSample, bool) {
	if n == nil {
		return out, true
	}
	var pred float64
	if s.preds != nil {
		if len(out) == len(s.preds) {
			return out, false
		}
		pred = s.preds[len(out)]
	} else {
		v := features.Extract(n, parent, s.est.Mode)
		pred = s.est.PredictVector(n.Kind, &v)
	}
	act := n.Actual.Get(s.res)
	s.sum += pred
	out = append(out, opSample{kind: n.Kind, err: stats.L1RelErr(pred, act), pred: pred, act: act})
	for _, c := range n.Children {
		var ok bool
		if out, ok = s.walk(out, c, n); !ok {
			return out, false
		}
	}
	return out, true
}

// factorError is the symmetric multiplicative miss of a prediction:
// max(p/a, a/p), 1 when exact. Both inputs must be positive.
func factorError(predicted, actual float64) float64 {
	r := predicted / actual
	if r < 1 {
		return 1 / r
	}
	return r
}

// Quiesce blocks until no retrain is in flight — the shutdown barrier
// (and a test hook: after the last Observe returns, any triggered
// retrain has either published or been rejected once Quiesce returns).
func (l *Loop) Quiesce() { l.wg.Wait() }

// Close stops ingestion, waits for in-flight retrains, and closes the
// observation log. Safe to call twice.
func (l *Loop) Close() error {
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	if already {
		return nil
	}
	l.wg.Wait()
	if l.log != nil {
		return l.log.Close()
	}
	return nil
}
