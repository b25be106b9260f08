package core

import (
	"sort"

	"repro/internal/plan"
)

// trainOperator trains one operator's candidates from its samples
// through the job list TrainSet builds, and selects the default.
func trainOperator(op plan.OpKind, r plan.ResourceKind, samples []Sample,
	t *ScaleTable, cfg Config) (*OperatorModels, error) {

	models, err := runFitJobs(appendOperatorJobs(nil, op, r, samples, t, cfg), cfg)
	if err != nil {
		return nil, err
	}
	return assembleOperator(op, r, len(samples), models), nil
}

// CandidateNames lists the trained candidates, sorted.
func (om *OperatorModels) CandidateNames() []string {
	out := make([]string, len(om.Candidates))
	for i, c := range om.Candidates {
		out[i] = c.Name()
	}
	sort.Strings(out)
	return out
}

// PairKinds lists the two-input candidate forms for join operators.
func PairKinds() []ScaleKind {
	return []ScaleKind{ScaleSum2, ScaleProd2, ScaleXLogY}
}
