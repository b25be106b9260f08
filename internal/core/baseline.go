package core

import (
	"sort"

	"repro/internal/plan"
	"repro/internal/stats"
)

// ErrorBaseline snapshots an estimator's plan-level relative-error
// distribution at training time. The feedback subsystem's drift
// detector compares the error distribution observed in production
// against this snapshot: a model is "drifting" when recent errors are a
// configured multiple of what the model achieved on the workload it was
// trained on. The snapshot is persisted with the model (see persist.go)
// so drift detection survives save/load round trips.
// The json tags matter: the serving layer embeds this struct in the
// /metrics feedback gauges, which are otherwise snake_case.
type ErrorBaseline struct {
	// N is the number of plans the snapshot was computed over.
	N int `json:"n"`
	// Mean is the mean plan-level L1 relative error (§7.1 metric).
	Mean float64 `json:"mean"`
	// P50 and P90 are quantiles of the same error distribution.
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
}

// EvalPlans computes the plan-level L1 relative-error distribution of e
// over executed plans (prediction vs. TotalActual for e's resource).
func (e *Estimator) EvalPlans(plans []*plan.Plan) ErrorBaseline {
	if len(plans) == 0 {
		return ErrorBaseline{}
	}
	errs := make([]float64, len(plans))
	for i, p := range plans {
		errs[i] = stats.L1RelErr(e.PredictPlan(p), p.TotalActual().Get(e.Resource))
	}
	sort.Float64s(errs)
	return ErrorBaseline{
		N:    len(errs),
		Mean: stats.Mean(errs),
		P50:  stats.Quantile(errs, 0.5),
		P90:  stats.Quantile(errs, 0.9),
	}
}

// SetBaseline stamps the training-time error snapshot onto e. Call it
// once, on the training plans, before the estimator is published —
// estimators are immutable on the predict path, and the serving layer
// relies on that (see the Estimator concurrency contract).
func (e *Estimator) SetBaseline(plans []*plan.Plan) {
	b := e.EvalPlans(plans)
	e.Baseline = &b
}
