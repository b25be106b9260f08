package feedback

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/stats"
)

// stubPublisher is an in-memory stand-in for the serving registry.
type stubPublisher struct {
	mu      sync.Mutex
	est     *core.Estimator
	version uint64
}

func (s *stubPublisher) CurrentEstimator(schema string, r plan.ResourceKind) (*core.Estimator, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.est == nil || s.est.Resource != r {
		return nil, 0, false
	}
	return s.est, s.version, true
}

func (s *stubPublisher) PublishEstimator(schema string, est *core.Estimator) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.est = est
	s.version++
	return s.version
}

func (s *stubPublisher) current() (*core.Estimator, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est, s.version
}

// trainStale trains an estimator on executed plans and installs it in
// the publisher as version 1.
func trainStale(t testing.TB, pub *stubPublisher, plans []*plan.Plan) *core.Estimator {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Mart.Iterations = 50
	est, err := core.Train(plans, plan.CPUTime, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est.SetBaseline(plans)
	pub.PublishEstimator("tpch", est)
	return est
}

// scaleActuals multiplies every node's measured CPU by factor —
// simulating a regime change (new hardware, contention, data growth)
// the frozen model knows nothing about.
func scaleActuals(plans []*plan.Plan, factor float64) {
	for _, p := range plans {
		p.Walk(func(n *plan.Node) { n.Actual.CPU *= factor })
	}
}

func meanPlanErr(est *core.Estimator, plans []*plan.Plan) float64 {
	var sum float64
	for _, p := range plans {
		sum += stats.L1RelErr(est.PredictPlan(p), p.TotalActual().CPU)
	}
	return sum / float64(len(plans))
}

func driftOptions(pub *stubPublisher, dir string) Options {
	return Options{
		Dir:             dir,
		Publisher:       pub,
		MinObservations: 64,
		DriftThreshold:  2,
	}
}

// TestLoopDriftRetrainPublish is the package-level version of the
// acceptance scenario: a stale model, a drifted observation stream, and
// the loop must detect, retrain, validate and publish — improving error
// on the drifted workload by at least 2x.
func TestLoopDriftRetrainPublish(t *testing.T) {
	trainPlans := executedPlans(t, 41, 72)
	pub := &stubPublisher{}
	stale := trainStale(t, pub, trainPlans)

	drifted := executedPlans(t, 42, 120)
	scaleActuals(drifted, 4)

	l, err := New(driftOptions(pub, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range drifted {
		if err := l.Observe(&Observation{Schema: "tpch", Resource: plan.CPUTime, Plan: p}); err != nil {
			t.Fatal(err)
		}
	}
	l.Quiesce()

	cur, version := pub.current()
	if version < 2 {
		t.Fatalf("no retrained model published (still v%d)", version)
	}
	if cur.Baseline == nil {
		t.Fatal("retrained model has no baseline for the next drift cycle")
	}
	staleErr := meanPlanErr(stale, drifted)
	newErr := meanPlanErr(cur, drifted)
	if staleErr < 1 {
		t.Fatalf("drift setup broken: stale model error only %.3f", staleErr)
	}
	if newErr*2 > staleErr {
		t.Fatalf("retrain did not improve ≥2x: stale %.3f, retrained %.3f", staleErr, newErr)
	}

	// The swap reset the error windows (they described the replaced
	// version); post-swap traffic repopulates the gauges against the new
	// model.
	extra := executedPlans(t, 46, 12)
	scaleActuals(extra, 4)
	for _, p := range extra {
		if err := l.Observe(&Observation{Schema: "tpch", Resource: plan.CPUTime, Plan: p}); err != nil {
			t.Fatal(err)
		}
	}
	l.Quiesce()

	snaps := l.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshot has %d routes, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Schema != "tpch" || s.Resource != "CPU" {
		t.Fatalf("snapshot route %s/%s", s.Schema, s.Resource)
	}
	if s.Retrains < 1 || s.Rejections != 0 {
		t.Fatalf("retrains %d rejections %d, want ≥1 and 0", s.Retrains, s.Rejections)
	}
	if s.LastVersion != version {
		t.Fatalf("snapshot last version %d, registry at %d", s.LastVersion, version)
	}
	if s.Observations != uint64(len(drifted)+len(extra)) {
		t.Fatalf("snapshot observations %d, want %d", s.Observations, len(drifted)+len(extra))
	}
	if len(s.PerOperator) == 0 {
		t.Fatal("no per-operator gauges")
	}
	if s.Baseline == nil {
		t.Fatal("snapshot missing current model baseline")
	}
	// Post-swap errors on the drifted workload must read healthy.
	if s.Window.Count != len(extra) || s.Window.Mean > 1 {
		t.Fatalf("post-swap window unhealthy: %+v", s.Window)
	}
}

// TestLoopRejectsGarbageActuals feeds observations whose actuals are
// irreducible noise. The drift detector fires (errors are huge), the
// retrainer runs — and the reject-if-worse guard must refuse to publish
// a model fitted to garbage, leaving the incumbent serving.
func TestLoopRejectsGarbageActuals(t *testing.T) {
	trainPlans := executedPlans(t, 41, 72)
	pub := &stubPublisher{}
	stale := trainStale(t, pub, trainPlans)
	_, before := pub.current()

	garbage := executedPlans(t, 43, 120)
	rng := rand.New(rand.NewSource(99))
	for _, p := range garbage {
		nodes := p.Nodes()
		// Log-uniform totals over six decades, uncorrelated with the
		// plan: no model can fit these, including one trained on them.
		total := math.Pow(10, rng.Float64()*6)
		for _, n := range nodes {
			n.Actual.CPU = total / float64(len(nodes))
		}
	}

	l, err := New(driftOptions(pub, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range garbage {
		if err := l.Observe(&Observation{Schema: "tpch", Resource: plan.CPUTime, Plan: p}); err != nil {
			t.Fatal(err)
		}
	}
	l.Quiesce()

	cur, after := pub.current()
	if after != before {
		t.Fatalf("garbage observations published a model: v%d -> v%d", before, after)
	}
	if cur != stale {
		t.Fatal("incumbent estimator replaced")
	}
	s := l.Snapshot()[0]
	if s.Rejections < 1 {
		t.Fatalf("no rejection recorded: %+v", s)
	}
	if s.Retrains != 0 {
		t.Fatalf("%d retrains accepted on garbage", s.Retrains)
	}
}

// TestLoopReplayWarmsState restarts a loop over an existing log: the
// retraining buffer and counters must be rebuilt from disk.
func TestLoopReplayWarmsState(t *testing.T) {
	dir := t.TempDir()
	plans := executedPlans(t, 44, 20)
	l, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		err := l.Observe(&Observation{
			Schema:    "tpch",
			Resource:  plan.LogicalIO,
			Predicted: float64(100 + i),
			Plan:      p,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Observe(&Observation{Schema: "tpch", Resource: plan.LogicalIO, Plan: plans[0]}); err != ErrClosed {
		t.Fatalf("observe after close: %v, want ErrClosed", err)
	}

	l2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snaps := l2.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("replayed snapshot has %d routes", len(snaps))
	}
	s := snaps[0]
	if s.Observations != uint64(len(plans)) || s.Buffered != len(plans) {
		t.Fatalf("replay restored %d observations (%d buffered), want %d", s.Observations, s.Buffered, len(plans))
	}
	if s.Window.Count != len(plans) || s.Window.Mean <= 0 {
		t.Fatalf("replay did not rebuild the error window: %+v", s.Window)
	}
}

// TestObserveServedWireNotRetained hands the loop wire bytes in a
// buffer the caller overwrites as soon as ObserveServed returns, as the
// HTTP handler's pooled body is: the log must hold the bytes as they
// were, and the retraining buffer a plan that does not alias them.
func TestObserveServedWireNotRetained(t *testing.T) {
	dir := t.TempDir()
	plans := executedPlans(t, 45, 12)
	l, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var canonical [][]byte
	var body bytes.Buffer
	for i, p := range plans {
		enc, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		canonical = append(canonical, enc)
		body.Reset()
		if err := json.Indent(&body, enc, "", "\t"); err != nil {
			t.Fatal(err)
		}
		wire := body.Bytes()
		own, err := plan.DecodeJSON(wire)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.ObserveServed(&Observation{Schema: "tpch", Resource: plan.CPUTime, Predicted: float64(i + 1), Plan: own},
			Served{Wire: wire}); err != nil {
			t.Fatal(err)
		}
		for k := range wire {
			wire[k] = '#'
		}
	}
	check := func(what string, got []*Observation) {
		t.Helper()
		if len(got) != len(plans) {
			t.Fatalf("%s: %d observations, want %d", what, len(got), len(plans))
		}
		for i, o := range got {
			if enc, err := plan.EncodeJSON(o.Plan); err != nil || !bytes.Equal(enc, canonical[i]) {
				t.Fatalf("%s: plan %d changed under an overwritten wire buffer (%v)", what, i, err)
			}
		}
	}
	l.mu.Lock()
	buffered := l.routes[routeKey{schema: "tpch", resource: plan.CPUTime}].buffered()
	l.mu.Unlock()
	check("retraining buffer", buffered)
	var replayed []*Observation
	if _, err := ReplayDir(dir, func(o *Observation) error {
		replayed = append(replayed, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("log", replayed)
}

func TestObserveValidates(t *testing.T) {
	l, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Observe(&Observation{Schema: "x", Resource: plan.CPUTime}); err == nil {
		t.Fatal("observation without plan accepted")
	}
	p := executedPlans(t, 45, 1)[0]
	unexecuted := plan.New(p.Root, "copy") // same tree, but zero out actuals below
	unexecuted.Walk(func(n *plan.Node) { n.Actual = plan.Resources{} })
	if err := l.Observe(&Observation{Schema: "x", Resource: plan.CPUTime, Plan: unexecuted}); err == nil {
		t.Fatal("observation without actuals accepted")
	}
	huge := &Observation{Schema: string(make([]byte, maxSchemaLen)), Resource: plan.CPUTime, Plan: p}
	if err := l.Observe(huge); !errors.Is(err, ErrInvalid) {
		t.Fatalf("oversized schema: %v, want ErrInvalid", err)
	}
}

// TestLoopResetsWindowsOnOutOfBandSwap: when the serving model changes
// without the loop's involvement (rollback, POST /models), the error
// windows — which described the replaced version — must reset rather
// than fire a drift retrain that would override the operator's swap.
func TestLoopResetsWindowsOnOutOfBandSwap(t *testing.T) {
	plans := executedPlans(t, 47, 40)
	pub := &stubPublisher{}
	trainStale(t, pub, plans[:20])

	opts := driftOptions(pub, "")
	opts.MinObservations = 1 << 30 // never retrain; window behavior under test
	l, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	drifted := plans[20:]
	scaleActuals(drifted, 4)
	for _, p := range drifted[:15] {
		if err := l.Observe(&Observation{Schema: "tpch", Resource: plan.CPUTime, Plan: p}); err != nil {
			t.Fatal(err)
		}
	}
	if s := l.Snapshot()[0]; s.Window.Count != 15 {
		t.Fatalf("window count %d before swap, want 15", s.Window.Count)
	}

	// Out-of-band swap: a new version appears without the loop knowing.
	trainStale(t, pub, plans[:20])
	for _, p := range drifted[15:17] {
		if err := l.Observe(&Observation{Schema: "tpch", Resource: plan.CPUTime, Plan: p}); err != nil {
			t.Fatal(err)
		}
	}
	s := l.Snapshot()[0]
	if s.Window.Count != 2 {
		t.Fatalf("window count %d after out-of-band swap, want 2 (reset + fresh observations)", s.Window.Count)
	}
	if s.Observations != 17 {
		t.Fatalf("observation counter %d, want 17 (reset must not erase totals)", s.Observations)
	}
}

// TestLoopBoundsRoutes: spraying distinct schema names must not grow
// per-route state without bound — new routes beyond maxRoutes are
// rejected as invalid before reaching the log.
func TestLoopBoundsRoutes(t *testing.T) {
	p := executedPlans(t, 48, 1)[0]
	l, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < maxRoutes; i++ {
		obs := &Observation{Schema: string(rune('a' + i)), Resource: plan.CPUTime, Predicted: 1, Plan: p}
		if err := l.Observe(obs); err != nil {
			t.Fatal(err)
		}
	}
	err = l.Observe(&Observation{Schema: "one-too-many", Resource: plan.CPUTime, Predicted: 1, Plan: p})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("route beyond cap: %v, want ErrInvalid", err)
	}
	// Existing routes keep working at the cap.
	if err := l.Observe(&Observation{Schema: "a", Resource: plan.CPUTime, Predicted: 1, Plan: p}); err != nil {
		t.Fatalf("existing route rejected at cap: %v", err)
	}
	if got := len(l.Snapshot()); got != maxRoutes {
		t.Fatalf("%d routes tracked, want %d", got, maxRoutes)
	}
}

// TestReplayBoundsRoutes: a log can hold more routes than the loop
// tracks — Append never checks the bound — so replay must apply it too.
// The newest route is the one dropped, and it stays closed to fresh
// observations.
func TestReplayBoundsRoutes(t *testing.T) {
	dir := t.TempDir()
	p := executedPlans(t, 49, 1)[0]
	log, err := OpenLog(LogOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	schema := func(i int) string { return "schema-" + strconv.Itoa(i) }
	for i := 0; i <= maxRoutes; i++ {
		obs := &Observation{Schema: schema(i), Resource: plan.CPUTime, Predicted: 1, Plan: p, UnixNanos: int64(i + 1)}
		if err := log.Append(obs); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	routes := l.Snapshot()
	if len(routes) != maxRoutes {
		t.Fatalf("replay tracks %d routes, want %d", len(routes), maxRoutes)
	}
	for _, rs := range routes {
		if rs.Schema == schema(maxRoutes) {
			t.Fatalf("replay kept the route past the bound, %s", rs.Schema)
		}
	}
	err = l.Observe(&Observation{Schema: schema(maxRoutes), Resource: plan.CPUTime, Predicted: 1, Plan: p})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("observe for the dropped route: %v, want ErrInvalid", err)
	}
}

// TestLoopSkipsNonFinitePredictions serves a plan whose first operator
// was predicted +Inf, so its total is +Inf too: the observation is
// logged and buffered, but neither the plan nor that operator is
// scored, and the operators predicted finitely still are.
func TestLoopSkipsNonFinitePredictions(t *testing.T) {
	plans := executedPlans(t, 5, 4)
	pub := &stubPublisher{}
	trainStale(t, pub, plans)
	dir := t.TempDir()
	l, err := New(Options{Dir: dir, Publisher: pub})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p := plans[0]
	_, version := pub.current()
	var preds []float64
	p.Walk(func(n *plan.Node) { preds = append(preds, 1) })
	preds[0] = math.Inf(1)
	if err := l.ObserveServed(&Observation{Schema: "tpch", Resource: plan.CPUTime, Plan: p},
		Served{Version: version, Operators: preds}); err != nil {
		t.Fatal(err)
	}
	routes := l.Snapshot()
	if _, err := json.Marshal(routes); err != nil {
		t.Fatalf("snapshot does not encode: %v", err)
	}
	r := routes[0]
	if r.Observations != 1 || r.Buffered != 1 {
		t.Errorf("%d observations, %d buffered; want the one, buffered", r.Observations, r.Buffered)
	}
	if r.Window.Count != 0 || r.Coverage != nil || r.ErrorLogRatio != nil || len(l.Exemplars()) != 0 {
		t.Errorf("a +Inf total was scored: window %+v, coverage %+v, histogram %+v, %d exemplars",
			r.Window, r.Coverage, r.ErrorLogRatio, len(l.Exemplars()))
	}
	samples := 0
	for _, op := range r.PerOperator {
		samples += op.Count
	}
	if want := len(preds) - 1; samples != want {
		t.Errorf("%d per-operator samples, want the %d finite ones", samples, want)
	}
	if n, err := ReplayDir(dir, func(*Observation) error { return nil }); n != 1 || err != nil {
		t.Errorf("log replays %d observations (%v), want 1", n, err)
	}
}
