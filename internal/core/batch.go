package core

import (
	"repro/internal/features"
	"repro/internal/mart"
	"repro/internal/plan"
)

// The batched estimation hot path. A batch of (operator kind, feature
// vector) pairs is grouped by operator, each group's vectors run model
// selection with shared scratch buffers, and the vectors that picked
// the same candidate model are evaluated together on the candidate's
// compiled tree layout (tree-outer, sample-inner — see mart.Compile).
// Every per-item result is bit-identical to the sequential
// PredictVector call: selection scores, input transforms, tree routing
// and the clamp/scale arithmetic are the same float operations in the
// same order, only batched.

// PredictBatch estimates many operators at once. kinds and vecs are
// parallel; the result is written into out when it has matching length
// (a fresh slice is allocated otherwise) and returned. Per-item results
// equal PredictVector(kinds[i], &vecs[i]) exactly, bit for bit.
//
// Like every predict method, PredictBatch only reads model state and is
// safe for unlimited concurrent use.
func (e *Estimator) PredictBatch(kinds []plan.OpKind, vecs []features.Vector, out []float64) []float64 {
	if len(out) != len(kinds) {
		out = make([]float64, len(kinds))
	}
	// Group item indexes by operator kind; kinds without a trained
	// model (including values outside the enum) take the fallback mean,
	// exactly as PredictVector does.
	groups := make(map[plan.OpKind][]int, len(e.Ops))
	for i, k := range kinds {
		if _, ok := e.Ops[k]; !ok {
			out[i] = e.fallbackMean
			continue
		}
		groups[k] = append(groups[k], i)
	}
	for kind, idxs := range groups {
		e.Ops[kind].predictBatch(vecs, idxs, out)
	}
	return out
}

// PredictPlans estimates the plan-level resource usage of a whole batch
// in one pass: batched feature extraction, then PredictBatch over every
// node, summed per plan. The result is parallel to plans, with each
// total bit-identical to PredictPlan on that plan.
func (e *Estimator) PredictPlans(plans []*plan.Plan) []float64 {
	vecs, offs := features.ExtractPlans(plans, e.Mode)
	kinds := make([]plan.OpKind, len(vecs))
	for i, p := range plans {
		j := offs[i]
		p.Walk(func(n *plan.Node) {
			kinds[j] = n.Kind
			j++
		})
	}
	perNode := e.PredictBatch(kinds, vecs, nil)
	totals := make([]float64, len(plans))
	for i := range plans {
		for _, v := range perNode[offs[i]:offs[i+1]] {
			totals[i] += v
		}
	}
	return totals
}

// predictBatch runs the operator's selection and prediction over the
// items indexed by idxs, writing results into out.
func (om *OperatorModels) predictBatch(vecs []features.Vector, idxs []int, out []float64) {
	// Model selection per vector (the per-vector choice of §6.3 cannot
	// be hoisted), then group by the chosen candidate so each group runs
	// the compiled ensemble together.
	var scratch []float64
	byModel := make(map[*CombinedModel][]int, 2)
	for _, i := range idxs {
		m := om.selectWith(&vecs[i], &scratch)
		byModel[m] = append(byModel[m], i)
	}
	for m, group := range byModel {
		m.predictBatch(vecs, group, out)
	}
}

// predictBatch evaluates the model over the items indexed by idxs. The
// transformed input rows are laid out back to back in one flat buffer
// (cache-friendly for the tree walks) and the post-processing applies
// PredictVector's clamp/scale arithmetic per item, in the same order.
func (m *CombinedModel) predictBatch(vecs []features.Vector, idxs []int, out []float64) {
	k := len(m.Inputs)
	flat := make([]float64, len(idxs)*k)
	rows := make([][]float64, len(idxs))
	for j, i := range idxs {
		row := flat[j*k : (j+1)*k : (j+1)*k]
		m.fillTransform(row, &vecs[i])
		rows[j] = row
	}
	us := make([]float64, len(idxs))
	if m.qcompiled != nil {
		m.qcompiled.PredictBatch(rows, us)
	} else {
		c := m.compiled
		if c == nil {
			// Hand-assembled model (tests, external construction): compile
			// on the fly. Train/load always pre-compile.
			c = mart.Compile(m.Mart)
		}
		c.PredictBatch(rows, us)
	}
	for j, i := range idxs {
		out[i] = m.scaleBack(us[j], &vecs[i])
	}
}
