package core

import (
	"errors"
	"fmt"

	"repro/internal/features"
	"repro/internal/plan"
)

// EstimatorSet bundles one Estimator per resource kind into a single
// multi-resource predictor. The paper trains independent per-operator
// combined models per resource (CPU time, logical I/O); a client that
// wants both should not pay two feature extractions and two dispatches
// for the same plan — the feature vector of a node is a function of the
// plan and the feature mode only, never of the resource.
// PredictAllBatch therefore accepts features extracted once and fans
// the same vectors out across every member estimator's compiled tree
// slabs.
//
// Per-resource results are bit-identical to calling the member
// estimator's PredictVector/PredictBatch directly: the fan-out reuses
// those exact code paths, sharing only the inputs.
//
// Concurrency: an EstimatorSet is immutable after NewEstimatorSet and
// inherits the member estimators' unlimited-concurrent-use contract.
type EstimatorSet struct {
	// Mode is the shared feature mode of every member.
	Mode features.Mode

	kinds []plan.ResourceKind
	ests  [plan.NumResources]*Estimator
}

// ErrModeMismatch means the member estimators of a set disagree on the
// feature mode, so one extraction pass cannot serve them all.
var ErrModeMismatch = errors.New("core: estimator set members disagree on feature mode")

// NewEstimatorSet bundles the given estimators (at least one, at most
// one per resource kind, all trained with the same feature mode) into a
// multi-resource set. Member order is preserved in Resources().
func NewEstimatorSet(ests ...*Estimator) (*EstimatorSet, error) {
	if len(ests) == 0 {
		return nil, errors.New("core: empty estimator set")
	}
	if ests[0] == nil {
		return nil, errors.New("core: nil estimator in set")
	}
	s := &EstimatorSet{Mode: ests[0].Mode, kinds: make([]plan.ResourceKind, 0, len(ests))}
	for _, e := range ests {
		if e == nil {
			return nil, errors.New("core: nil estimator in set")
		}
		if !e.Resource.Valid() {
			return nil, fmt.Errorf("core: estimator with unknown resource kind %d", e.Resource)
		}
		if e.Mode != s.Mode {
			return nil, ErrModeMismatch
		}
		if s.ests[e.Resource] != nil {
			return nil, fmt.Errorf("core: duplicate estimator for resource %s", e.Resource)
		}
		s.ests[e.Resource] = e
		s.kinds = append(s.kinds, e.Resource)
	}
	return s, nil
}

// Resources lists the resource kinds the set predicts, in the order the
// estimators were given to NewEstimatorSet.
func (s *EstimatorSet) Resources() []plan.ResourceKind { return s.kinds }

// Estimator returns the member predicting k, or nil when the set has
// none.
func (s *EstimatorSet) Estimator(k plan.ResourceKind) *Estimator {
	if !k.Valid() {
		return nil
	}
	return s.ests[k]
}

// PredictAllBatch estimates many operators across every resource in the
// set: the (kind, vector) batch — extracted once by the caller — fans
// out to each member estimator's batched hot path (compiled tree slabs,
// shared scratch). kinds and vecs are parallel; the result is written
// into out when it has matching length (a fresh slice is allocated
// otherwise) and returned. Per-item, per-resource results equal the
// member's PredictBatch exactly, bit for bit.
func (s *EstimatorSet) PredictAllBatch(kinds []plan.OpKind, vecs []features.Vector, out []plan.Resources) []plan.Resources {
	if len(out) != len(kinds) {
		out = make([]plan.Resources, len(kinds))
	} else {
		for i := range out {
			out[i] = plan.Resources{}
		}
	}
	// One scratch buffer shared across the resource fan-out: each member
	// writes its per-item predictions into it, which are then scattered
	// into the per-item Resources values.
	scratch := make([]float64, len(kinds))
	for _, r := range s.kinds {
		s.ests[r].PredictBatch(kinds, vecs, scratch)
		for i, v := range scratch {
			out[i].Set(r, v)
		}
	}
	return out
}

// PredictPlanAll estimates a plan's total usage of every resource in
// the set with one feature-extraction pass over its nodes.
func (s *EstimatorSet) PredictPlanAll(p *plan.Plan) plan.Resources {
	vecs := features.ExtractPlan(p, s.Mode)
	nodes := p.Nodes()
	kinds := make([]plan.OpKind, len(nodes))
	for i, n := range nodes {
		kinds[i] = n.Kind
	}
	perNode := s.PredictAllBatch(kinds, vecs, nil)
	var total plan.Resources
	for _, v := range perNode {
		total.Add(v)
	}
	return total
}

// PredictPlansAll estimates the plan-level usage of a whole batch
// across every resource in the set: one batched feature extraction, one
// fan-out, sums per plan. The result is parallel to plans.
func (s *EstimatorSet) PredictPlansAll(plans []*plan.Plan) []plan.Resources {
	vecs, offs := features.ExtractPlans(plans, s.Mode)
	kinds := make([]plan.OpKind, len(vecs))
	for i, p := range plans {
		j := offs[i]
		p.Walk(func(n *plan.Node) {
			kinds[j] = n.Kind
			j++
		})
	}
	perNode := s.PredictAllBatch(kinds, vecs, nil)
	totals := make([]plan.Resources, len(plans))
	for i := range plans {
		for _, v := range perNode[offs[i]:offs[i+1]] {
			totals[i].Add(v)
		}
	}
	return totals
}
