package feedback

import "repro/internal/core"

// Drift detection: the model is drifting when the recent windowed
// error quantile exceeds DriftThreshold × its training-time baseline.
//
// The baseline is the error the model achieved on the workload it was
// trained on (core.ErrorBaseline, stamped at training time and
// persisted with the model). Comparing against the model's own
// training-time accuracy — rather than a fixed absolute error bar —
// makes the detector robust across resources and workloads: a CPU model
// that trains to 8% error drifts at materially different absolute
// errors than an I/O model that trains to 30%. minBaselineError floors
// the comparison so a near-perfect fit does not make the detector fire
// on noise, and doubles as the whole baseline for models that predate
// baselines (nil Baseline).

// driftBaseline returns the error level "normal" is measured from: the
// baseline's P90, the quantile the window is read at, so like is
// compared with like.
func driftBaseline(est *core.Estimator) float64 {
	if est != nil && est.Baseline != nil {
		return max(est.Baseline.P90, minBaselineError)
	}
	return minBaselineError
}

// drift evaluates the detector for one route: whether it is drifting,
// and the window's driftQuantile it judged by (0 below minWindow).
// Caller holds l.mu.
func (l *Loop) drift(st *routeState, est *core.Estimator) (bool, float64) {
	if st.window.Len() < minWindow {
		return false, 0
	}
	recent := st.window.Quantile(driftQuantile)
	return recent > l.opts.DriftThreshold*driftBaseline(est), recent
}

// retrainEligible reports whether a drift finding should start a
// retrain now: enough buffered observations to learn from, no retrain
// already in flight, and a cooldown of MinObservations fresh
// observations since the last attempt (so a rejected candidate does not
// spin the trainer on the same data). Caller holds l.mu.
func (l *Loop) retrainEligible(st *routeState) bool {
	if l.opts.Publisher == nil || st.retraining {
		return false
	}
	if len(st.buffer) < l.opts.MinObservations {
		return false
	}
	return st.count-st.lastAttempt >= uint64(l.opts.MinObservations)
}
