package feedback

import (
	"math"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/stats"
)

// The background retrainer: triggered by the drift detector, it
// re-featurizes the buffered observations through internal/features
// (via core's training path), trains a fresh estimator, validates it on
// a held-out slice of the log, and publishes it only if it beats the
// incumbent — the reject-if-worse guard that keeps one bad batch of
// actuals (clock skew, a broken execution harness, an adversarial
// client) from poisoning the serving path.

// holdoutEvery deals every holdoutEvery-th buffered observation to the
// holdout: a fifth of the buffer validates the candidate.
const holdoutEvery = 5

// splitObservations deals every holdoutEvery-th observation to the
// holdout so both slices span the buffer's full time range (a suffix
// split would train on old drift and validate on new).
func splitObservations(obs []*Observation) (train, holdout []*plan.Plan) {
	for i, o := range obs {
		if i%holdoutEvery == holdoutEvery-1 {
			holdout = append(holdout, o.Plan)
		} else {
			train = append(train, o.Plan)
		}
	}
	if len(holdout) == 0 && len(train) > 1 { // tiny buffers still validate
		holdout = train[len(train)-1:]
		train = train[:len(train)-1]
	}
	return train, holdout
}

// meanHoldoutError is the mean plan-level L1 relative error of est on
// the held-out plans.
func meanHoldoutError(est *core.Estimator, holdout []*plan.Plan, r plan.ResourceKind) float64 {
	if len(holdout) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, p := range holdout {
		sum += stats.L1RelErr(est.PredictPlan(p), p.TotalActual().Get(r))
	}
	return sum / float64(len(holdout))
}

// retrain runs in its own goroutine per attempt (at most one in flight
// per route — see retrainEligible). cur/curVersion are the incumbent at
// trigger time; obs is a private snapshot of the route buffer.
func (l *Loop) retrain(key routeKey, cur *core.Estimator, curVersion uint64, obs []*Observation) {
	defer l.wg.Done()
	accepted, published, holdErr := l.retrainOnce(key, cur, curVersion, obs)

	l.mu.Lock()
	st := l.route(key)
	st.retraining = false
	if accepted {
		st.retrains++
		st.lastVersion = published
		st.seenVersion = published
		st.lastHoldout = holdErr
		// The windows described the replaced version; start fresh so the
		// detector measures the new model on its own terms.
		st.resetWindows()
	} else {
		st.rejections++
	}
	l.mu.Unlock()

	if accepted {
		l.opts.logf("feedback: %s/%s retrained: published v%d (holdout err %.3f, replacing v%d)",
			key.schema, key.resource, published, holdErr, curVersion)
	} else {
		l.opts.logf("feedback: %s/%s retrain rejected (holdout err %.3f)", key.schema, key.resource, holdErr)
	}
}

// retrainOnce trains, validates and (maybe) publishes one candidate.
func (l *Loop) retrainOnce(key routeKey, cur *core.Estimator, curVersion uint64, obs []*Observation) (accepted bool, published uint64, holdErr float64) {
	trainPlans, holdout := splitObservations(obs)
	cfg := core.DefaultConfig()
	cfg.Mart.Iterations = retrainIterations
	// Fan the candidate fits across the training pool so the retrain —
	// which runs while the old model is still serving degraded estimates
	// — finishes as fast as the hardware allows.
	cfg.Workers = l.opts.TrainWorkers
	if cur != nil {
		// Keep the incumbent's feature mode: a model serving estimated
		// cardinalities must be replaced by one trained the same way.
		cfg.Mode = cur.Mode
	}
	cand, err := core.Train(trainPlans, key.resource, nil, cfg)
	if err != nil {
		l.opts.logf("feedback: %s/%s retrain failed: %v", key.schema, key.resource, err)
		return false, 0, math.Inf(1)
	}
	// Stamp the baseline from the held-out slice: an in-sample snapshot
	// understates real error (MART fits its own training data well),
	// which would make the next drift cycle hair-triggered on a
	// perfectly stationary workload.
	cand.SetBaseline(holdout)

	holdErr = meanHoldoutError(cand, holdout, key.resource)
	// Reject-if-worse guard. Two conditions, both required:
	//   1. absolute: the candidate must clear maxHoldoutError. Garbage
	//      actuals are irreducible noise — no model fits them, including
	//      the candidate trained on them — so this gate catches poisoned
	//      logs even when the incumbent looks worse on that same garbage.
	//   2. relative: the candidate must beat the incumbent on the very
	//      observations that triggered the drift alarm.
	if holdErr > maxHoldoutError {
		return false, 0, holdErr
	}
	if cur != nil {
		if curErr := meanHoldoutError(cur, holdout, key.resource); holdErr >= curErr {
			return false, 0, holdErr
		}
	}
	// The incumbent the guard validated against must still be serving: a
	// rollback or manual hot-swap that landed while we trained is a
	// deliberate operator decision this retrain must not silently undo.
	// (Training takes seconds; this shrinks the override window to the
	// instants between the check and the publish.)
	if _, v, ok := l.opts.Publisher.CurrentEstimator(key.schema, key.resource); ok && v != curVersion {
		l.opts.logf("feedback: %s/%s retrain superseded by concurrent publish (v%d -> v%d), discarding candidate",
			key.schema, key.resource, curVersion, v)
		return false, 0, holdErr
	}
	return true, l.opts.Publisher.PublishEstimator(key.schema, cand), holdErr
}
