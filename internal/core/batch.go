package core

import (
	"sync"

	"repro/internal/features"
	"repro/internal/plan"
)

// The batched estimation hot path. A batch of (operator kind, feature
// vector) pairs is grouped by operator, each group's vectors run model
// selection with shared scratch buffers, and the vectors that picked
// the same candidate model are scored together on the candidate's
// compiled layout (see mart.Compile). Groups are small — a request's
// misses split by resource, operator and candidate — so grouping is two
// counting passes over small enums and every buffer comes from one
// pooled scratch: nothing is allocated per group. Every per-item result
// is bit-identical to the sequential PredictVector call: selection
// scores, input transforms, tree routing and the clamp/scale arithmetic
// are the same float operations in the same order, only batched.

// batchScratch is what one PredictBatch call works in.
type batchScratch struct {
	byKind []int     // item indexes, grouped by operator kind
	byCand []int     // one operator's item indexes, regrouped by chosen candidate
	chosen []int     // candidate slot per item of the operator being grouped
	ends   []int     // per candidate slot, where its group ends in byCand
	row    []float64 // selection's transform buffer
	flat   []float64 // one group's transformed rows, back to back
	us     []float64 // one group's raw ensemble outputs
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// sized returns buf with length n, reallocating only to grow.
func sized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

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
	s := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(s)

	// Counting sort of the item indexes by operator kind; kinds without
	// a trained model (including values outside the enum) take the
	// fallback mean, exactly as PredictVector does.
	var oms [plan.NumKinds]*OperatorModels
	for k, om := range e.Ops {
		if k >= 0 && int(k) < len(oms) {
			oms[k] = om
		}
	}
	modelled := func(k plan.OpKind) bool { return k >= 0 && int(k) < len(oms) && oms[k] != nil }
	var ends [plan.NumKinds]int
	for i, k := range kinds {
		if !modelled(k) {
			out[i] = e.fallbackMean
			continue
		}
		ends[k]++
	}
	n := 0
	for k, c := range ends {
		ends[k] = n
		n += c
	}
	byKind := sized(&s.byKind, n)
	for i, k := range kinds {
		if modelled(k) {
			byKind[ends[k]] = i
			ends[k]++
		}
	}
	lo := 0
	for k, hi := range ends {
		if hi > lo {
			oms[k].predictBatch(vecs, byKind[lo:hi], out, s)
		}
		lo = hi
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
func (om *OperatorModels) predictBatch(vecs []features.Vector, idxs []int, out []float64, s *batchScratch) {
	// Model selection per vector (the per-vector choice of §6.3 cannot
	// be hoisted), then a counting sort by the chosen candidate so each
	// group scores on one ensemble. Slot 0 is a Default outside
	// Candidates, slot c+1 is Candidates[c].
	chosen := sized(&s.chosen, len(idxs))
	ends := sized(&s.ends, len(om.Candidates)+1)
	clear(ends)
	for j, i := range idxs {
		chosen[j] = om.selectWith(&vecs[i], &s.row) + 1
		ends[chosen[j]]++
	}
	n := 0
	for c, cnt := range ends {
		ends[c] = n
		n += cnt
	}
	byCand := sized(&s.byCand, len(idxs))
	for j, i := range idxs {
		byCand[ends[chosen[j]]] = i
		ends[chosen[j]]++
	}
	lo := 0
	for c, hi := range ends {
		if hi > lo {
			m := om.Default
			if c > 0 {
				m = om.Candidates[c-1]
			}
			m.predictBatch(vecs, byCand[lo:hi], out, s)
		}
		lo = hi
	}
}

// predictBatch evaluates the model over the items indexed by idxs. The
// transformed input rows are laid out back to back in one flat buffer,
// which the ensemble scores in place, and the post-processing applies
// PredictVector's clamp/scale arithmetic per item, in the same order.
func (m *CombinedModel) predictBatch(vecs []features.Vector, idxs []int, out []float64, s *batchScratch) {
	k := len(m.Inputs)
	flat := sized(&s.flat, len(idxs)*k)
	for j, i := range idxs {
		m.fillTransform(flat[j*k:(j+1)*k], &vecs[i])
	}
	us := sized(&s.us, len(idxs))
	if m.qcompiled != nil {
		m.qcompiled.PredictRows(flat, k, us)
	} else {
		m.compiled.PredictRows(flat, k, us)
	}
	for j, i := range idxs {
		out[i] = m.scaleBack(us[j], &vecs[i])
	}
}
