package feedback

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
)

// newBareLoop builds an in-memory loop for unit-testing the drift
// state machine and telemetry snapshots without log or publisher
// machinery unless supplied.
func newBareLoop(t *testing.T, opts Options) *Loop {
	t.Helper()
	l, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestDriftBaseline pins the baseline selection rules: the floor alone
// without a model, the baseline's P90 with one, and the floor winning
// over a near-perfect fit.
func TestDriftBaseline(t *testing.T) {
	if got := driftBaseline(nil); got != 0.05 {
		t.Fatalf("baseline without estimator = %v, want floor 0.05", got)
	}
	est := &core.Estimator{Baseline: &core.ErrorBaseline{P50: 0.1, P90: 0.3}}
	if got := driftBaseline(est); got != 0.3 {
		t.Fatalf("P90-quantile baseline = %v, want 0.3", got)
	}
	if got := driftBaseline(&core.Estimator{}); got != 0.05 {
		t.Fatalf("baseline with nil ErrorBaseline = %v, want floor", got)
	}
	tiny := &core.Estimator{Baseline: &core.ErrorBaseline{P50: 0.001, P90: 0.002}}
	if got := driftBaseline(tiny); got != 0.05 {
		t.Fatalf("near-perfect fit baseline = %v, want floor 0.05", got)
	}
}

// TestDriftingStateMachine drives the detector through its states:
// silent while the window is underfilled, silent while errors sit at
// the baseline, firing once the windowed quantile crosses
// DriftThreshold x baseline, and recovering when errors subside.
func TestDriftingStateMachine(t *testing.T) {
	l := newBareLoop(t, Options{DriftThreshold: 2}) // threshold = 2 x 0.05 floor
	st := l.route(routeKey{schema: "s", resource: plan.CPUTime})

	for i := 0; i < minWindow-1; i++ {
		st.window.Add(5.0) // grossly wrong, but window underfilled
	}
	if l.drifting(st, nil) {
		t.Fatal("detector fired below MinWindow fill")
	}
	st.window.Add(5.0)
	if !l.drifting(st, nil) {
		t.Fatal("detector silent at MinWindow fill with errors 50x threshold")
	}

	st.window.Reset()
	for i := 0; i < windowSize; i++ {
		st.window.Add(0.05) // at baseline: healthy
	}
	if l.drifting(st, nil) {
		t.Fatal("detector fired on baseline-level errors")
	}
	for i := 0; i < windowSize; i++ {
		st.window.Add(0.2) // 2x past threshold, fills whole window
	}
	if !l.drifting(st, nil) {
		t.Fatal("detector silent past threshold")
	}

	// A better-trained baseline raises the bar: same window, larger
	// baseline, no drift.
	good := &core.Estimator{Baseline: &core.ErrorBaseline{P50: 0.1, P90: 0.15}}
	if l.drifting(st, good) {
		t.Fatal("detector ignored the model's own baseline")
	}
}

// TestRetrainEligible walks every gate of the retrain trigger:
// publisher present, no retrain in flight, buffer depth, and the
// fresh-observation cooldown after an attempt.
func TestRetrainEligible(t *testing.T) {
	opts := Options{MinObservations: 4, Publisher: &stubPublisher{}}
	l := newBareLoop(t, opts)
	st := l.route(routeKey{schema: "s", resource: plan.CPUTime})

	if l.retrainEligible(st) {
		t.Fatal("eligible with empty buffer")
	}
	for i := 0; i < 4; i++ {
		st.push(&Observation{}, l.bufferCap())
	}
	st.count = 4
	if !l.retrainEligible(st) {
		t.Fatal("not eligible with full buffer, idle trainer, elapsed cooldown")
	}

	st.retraining = true
	if l.retrainEligible(st) {
		t.Fatal("eligible while a retrain is in flight")
	}
	st.retraining = false

	st.lastAttempt = 2 // only 2 fresh since last attempt, need 4
	if l.retrainEligible(st) {
		t.Fatal("eligible during cooldown")
	}
	st.count = 6 // cooldown elapsed
	if !l.retrainEligible(st) {
		t.Fatal("not eligible after cooldown elapsed")
	}

	bare := newBareLoop(t, Options{MinObservations: 4})
	bst := bare.route(routeKey{schema: "s", resource: plan.CPUTime})
	for i := 0; i < 4; i++ {
		bst.push(&Observation{}, bare.bufferCap())
	}
	bst.count = 4
	if bare.retrainEligible(bst) {
		t.Fatal("eligible without a publisher")
	}
}

// TestCodecRequestIDRoundTrip pins the versioning contract of the
// request-ID field: absent IDs encode as version 1 (byte-identical to
// pre-request-ID writers), present IDs as version 2, and both decode.
func TestCodecRequestIDRoundTrip(t *testing.T) {
	p := executedPlans(t, 15, 1)[0]
	base := &Observation{Schema: "tpch", Resource: plan.CPUTime, Predicted: 3, Plan: p, UnixNanos: 99}

	rec1, err := EncodeObservation(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if v := rec1[recordHeader]; v != codecVersion {
		t.Fatalf("ID-less observation encoded as version %d, want %d", v, codecVersion)
	}

	withID := *base
	withID.RequestID = "req-0042"
	rec2, err := EncodeObservation(nil, &withID)
	if err != nil {
		t.Fatal(err)
	}
	if v := rec2[recordHeader]; v != codecVersionV2 {
		t.Fatalf("observation with request ID encoded as version %d, want %d", v, codecVersionV2)
	}
	// The v2 record is the v1 record plus the appended ID field: the
	// shared prefix (after the version byte and differing CRC/length
	// header) must be unchanged.
	if !bytes.Equal(rec1[recordHeader+1:], rec2[recordHeader+1:len(rec1)]) {
		t.Fatal("v2 payload does not extend the v1 layout")
	}

	out, _ := decodeOne(t, rec2)
	if out.RequestID != "req-0042" {
		t.Fatalf("request ID round trip: got %q", out.RequestID)
	}
	out1, _ := decodeOne(t, rec1)
	if out1.RequestID != "" {
		t.Fatalf("v1 record decoded with request ID %q", out1.RequestID)
	}

	// Truncating the ID tail must fail decode, not silently drop it.
	payload := append([]byte(nil), rec2[recordHeader:]...)
	if _, err := DecodeObservation(payload[:len(payload)-3]); err == nil {
		t.Fatal("truncated request-ID tail decoded")
	}

	long := *base
	long.RequestID = strings.Repeat("x", maxRequestIDLen)
	if _, err := EncodeObservation(nil, &long); err == nil {
		t.Fatal("encoded oversized request ID")
	}
	if err := long.validate(); err == nil {
		t.Fatal("validated oversized request ID")
	}
}

// TestExemplarStore exercises the bounded top-K store directly:
// admission below capacity, min-eviction at capacity, rejection of
// non-qualifying offers, and worst-first snapshot order.
func TestExemplarStore(t *testing.T) {
	s := &exemplarStore{}
	if !s.qualifies(0.1) {
		t.Fatal("empty store rejected a candidate")
	}
	for i := 0; i < exemplarK; i++ { // 1..exemplarK, out of order
		abs := float64(i*7%exemplarK + 1)
		s.offer(&Exemplar{AbsLogRatio: abs, UnixNanos: int64(abs)})
	}
	top := float64(exemplarK + 8)
	s.offer(&Exemplar{AbsLogRatio: top, UnixNanos: int64(top)}) // evicts 1
	s.offer(&Exemplar{AbsLogRatio: 0.5})                        // below min, dropped
	got := s.snapshot()
	if len(got) != exemplarK || got[0].AbsLogRatio != top {
		t.Fatalf("snapshot = %+v, want %d entries led by %v", got, exemplarK, top)
	}
	for i := 1; i < len(got); i++ {
		if want := float64(exemplarK + 1 - i); got[i].AbsLogRatio != want {
			t.Fatalf("snapshot[%d] = %v, want %v", i, got[i].AbsLogRatio, want)
		}
	}
	if s.qualifies(1.5) {
		t.Fatal("qualifies below the kept minimum")
	}
	if !s.qualifies(10) {
		t.Fatal("does not qualify above the kept minimum")
	}
	if s.qualifies(math.NaN()) || s.qualifies(0) {
		t.Fatal("non-positive magnitude qualified")
	}
}

// TestLoopAccuracyTelemetry drives a loop with known mispredictions and
// checks the cumulative accuracy surfaces: the signed log-ratio
// quantiles, the coverage counters, the drift-state export, and the
// worst-prediction exemplars with their request IDs.
func TestLoopAccuracyTelemetry(t *testing.T) {
	// More 8x misses than the exemplar store keeps, and enough traffic
	// to fill the drift window past minWindow.
	plans := executedPlans(t, 16, 2*exemplarK+8)
	l := newBareLoop(t, Options{})

	// Half the traffic predicts exactly, half over-predicts 8x: coverage
	// is 50% at both bands, the error histogram is half zeros and half
	// +ln 8, and the worst exemplars are all 8x cases.
	for i, p := range plans {
		actual := p.TotalActual().Get(plan.CPUTime)
		pred := actual
		id := ""
		if i%2 == 1 {
			pred = 8 * actual
			id = "req-bad"
		}
		err := l.Observe(&Observation{
			Schema: "tpch", Resource: plan.CPUTime,
			Predicted: pred, Plan: p, RequestID: id,
		})
		if err != nil {
			t.Fatalf("Observe(%d): %v", i, err)
		}
	}

	snaps := l.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("got %d routes, want 1", len(snaps))
	}
	rs := snaps[0]
	if rs.ErrorLogRatio == nil {
		t.Fatal("no error_log_ratio on an observed route")
	}
	// Exact predictions (log ratio 0) count on the over side by the
	// histogram's e >= 0 convention.
	n := uint64(len(plans))
	if rs.ErrorLogRatio.Count != n || rs.ErrorLogRatio.Over != n || rs.ErrorLogRatio.Under != 0 {
		t.Fatalf("error counts = %+v, want count %d, all over-side", rs.ErrorLogRatio, n)
	}
	ln8 := math.Log(8)
	if got := rs.ErrorLogRatio.P90; math.Abs(got-ln8)/ln8 > 0.15 {
		t.Fatalf("p90 = %v, want about ln 8 = %v", got, ln8)
	}
	if got := rs.ErrorLogRatio.MaxAbs; math.Abs(got-ln8)/ln8 > 0.15 {
		t.Fatalf("max_abs = %v, want about ln 8", got)
	}
	if rs.Coverage == nil || rs.Coverage.Total != n || rs.Coverage.Within15x != n/2 || rs.Coverage.Within2x != n/2 {
		t.Fatalf("coverage = %+v, want %d/%d in both bands", rs.Coverage, n/2, n)
	}
	if rs.Drift == nil {
		t.Fatal("no drift state on an observed route")
	}
	if rs.Drift.MinWindow != minWindow || rs.Drift.WindowFill != len(plans) || rs.Drift.Threshold <= 0 {
		t.Fatalf("drift state = %+v", rs.Drift)
	}
	if rs.Drift.RetrainEligible {
		t.Fatal("retrain eligible without a publisher")
	}

	ex := l.Exemplars()
	if len(ex) != exemplarK {
		t.Fatalf("kept %d exemplars, want exemplarK = %d", len(ex), exemplarK)
	}
	for i, e := range ex {
		if math.Abs(e.AbsLogRatio-ln8)/ln8 > 1e-9 {
			t.Fatalf("exemplar %d ranked by %v, want ln 8", i, e.AbsLogRatio)
		}
		if e.RequestID != "req-bad" {
			t.Fatalf("exemplar %d request ID = %q", i, e.RequestID)
		}
		if len(e.Plan) == 0 {
			t.Fatalf("exemplar %d has no plan wire form", i)
		}
		if e.Predicted <= 0 || e.Actual <= 0 || e.Predicted < 7.9*e.Actual {
			t.Fatalf("exemplar %d sides = %v/%v", i, e.Predicted, e.Actual)
		}
	}
}
