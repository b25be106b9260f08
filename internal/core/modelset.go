package core

import (
	"slices"

	"repro/internal/features"
	"repro/internal/plan"
)

// candidateScaleFeatures returns the curated scaling-feature candidates
// per operator: the magnitude features whose out-of-range values the
// combined models must extrapolate over. Filtered by the §6.2
// non-scaling rules via features.Scalable.
func candidateScaleFeatures(op plan.OpKind, r plan.ResourceKind) []features.ID {
	var ids []features.ID
	switch op {
	case plan.TableScan, plan.IndexScan:
		ids = []features.ID{features.TSize, features.SOutAvg, features.COut}
	case plan.IndexSeek:
		ids = []features.ID{features.COut, features.TSize, features.SOutAvg}
	case plan.Filter:
		ids = []features.ID{features.CIn1, features.SInAvg1, features.COut}
	case plan.Sort:
		ids = []features.ID{features.CIn1, features.SInAvg1, features.MinComp}
	case plan.HashJoin:
		ids = []features.ID{features.CIn1, features.CIn2, features.COut}
	case plan.MergeJoin:
		ids = []features.ID{features.CIn1, features.CIn2, features.SInSum}
	case plan.NestedLoopJoin:
		ids = []features.ID{features.CIn1, features.SSeekTable, features.COut}
	case plan.HashAggregate:
		ids = []features.ID{features.CIn1, features.COut, features.HashOpTot}
	case plan.StreamAggregate, plan.ComputeScalar, plan.Top:
		ids = []features.ID{features.CIn1, features.SInAvg1}
	}
	out := ids[:0]
	for _, id := range ids {
		if features.Scalable(id, r) {
			out = append(out, id)
		}
	}
	return out
}

// candidateScaleSets enumerates the scale-function sets to train for an
// operator: the default (no scaling), one single-feature combined model
// per candidate feature (using the §6.2-selected form), the pairwise
// compositions of the first two candidates, and — for joins — the
// special two-input forms.
func candidateScaleSets(op plan.OpKind, r plan.ResourceKind, t *ScaleTable) [][]ScaleFn {
	singles := candidateScaleFeatures(op, r)
	sets := [][]ScaleFn{nil} // the unscaled default candidate
	for _, f := range singles {
		sets = append(sets, []ScaleFn{{Kind: t.Get(op, f, r), F1: f}})
	}
	// Pairwise composition (§6.1 "Scaling by Multiple Features"): scale
	// by one feature, then repeat the construction for the next — e.g.
	// the paper's log2(TSIZE) × SOUTAVG index-seek example. Composition
	// multiplies the two scaling functions, which is only meaningful for
	// a cardinality × tuple-width pair (work = tuples × per-byte cost);
	// two cardinality features combine additively and are covered by the
	// dedicated two-input forms below instead.
	for i := 0; i < len(singles); i++ {
		for j := i + 1; j < len(singles); j++ {
			f1, f2 := singles[i], singles[j]
			if dependent(f1, f2) {
				continue // normalization would cancel the second scale
			}
			if isWidthFeature(f1) == isWidthFeature(f2) {
				continue // need one cardinality and one width feature
			}
			sets = append(sets, []ScaleFn{
				{Kind: t.Get(op, f1, r), F1: f1},
				{Kind: t.Get(op, f2, r), F1: f2},
			})
		}
	}
	if op.IsJoin() && r == plan.CPUTime {
		switch op {
		case plan.MergeJoin:
			sets = append(sets, []ScaleFn{{Kind: ScaleSum2, F1: features.CIn1, F2: features.CIn2}})
		case plan.NestedLoopJoin:
			sets = append(sets, []ScaleFn{{Kind: ScaleXLogY, F1: features.CIn1, F2: features.SSeekTable}})
		case plan.HashJoin:
			sets = append(sets, []ScaleFn{{Kind: ScaleSum2, F1: features.CIn1, F2: features.CIn2}})
		}
	}
	return sets
}

// isWidthFeature reports whether the feature measures tuple width
// (bytes per row) rather than a cardinality/volume.
func isWidthFeature(f features.ID) bool {
	return f == features.SOutAvg || f == features.SInAvg1 || f == features.SInAvg2
}

// dependent reports whether either feature normalizes the other.
func dependent(a, b features.ID) bool {
	for _, d := range features.Dependents(a) {
		if d == b {
			return true
		}
	}
	for _, d := range features.Dependents(b) {
		if d == a {
			return true
		}
	}
	return false
}

// OperatorModels holds every trained candidate for one operator and
// resource, plus the selected default. Like CombinedModel, it is
// immutable after training: Select and PredictVector are read-only and
// safe for concurrent use.
type OperatorModels struct {
	Op         plan.OpKind
	Resource   plan.ResourceKind
	Candidates []*CombinedModel
	Default    *CombinedModel
	NSamples   int
}

// Select picks the model for a feature vector per §6.3: the default if
// all its features are in the training range, otherwise the candidate
// with the smallest maximum out-ratio, ties broken by fewer scale
// features and then by the second-largest out-ratio.
func (om *OperatorModels) Select(v *features.Vector) *CombinedModel {
	var scratch []float64
	if i := om.selectWith(v, &scratch); i >= 0 {
		return om.Candidates[i]
	}
	return om.Default
}

// selectWith is Select with a caller-owned scratch buffer for the
// candidate transforms, letting the batch path select thousands of
// vectors without a per-candidate allocation. It returns the chosen
// model's index in Candidates, which is what the batch path groups by;
// -1 stands for a Default that is not among them.
func (om *OperatorModels) selectWith(v *features.Vector, scratch *[]float64) int {
	transformed := func(c *CombinedModel) []float64 {
		if cap(*scratch) < len(c.Inputs) {
			*scratch = make([]float64, len(c.Inputs)+8)
		}
		x := (*scratch)[:len(c.Inputs)]
		c.fillTransform(x, v)
		return x
	}
	// The default wins outright when all its features are in range —
	// but a default that itself scales (§6.1 allows this) must also see
	// its scaled-by features within their validated range.
	if first, _ := om.Default.outRatiosOf(transformed(om.Default)); first == 0 &&
		om.Default.belowScalePenalty(v) == 0 {
		return slices.Index(om.Candidates, om.Default)
	}
	type scored struct {
		i             int
		m             *CombinedModel
		first, second float64
	}
	best := scored{i: -1}
	const eps = 1e-12
	for i, c := range om.Candidates {
		f, s := c.outRatiosOf(transformed(c))
		f += c.belowScalePenalty(v)
		cand := scored{i: i, m: c, first: f, second: s}
		if best.m == nil {
			best = cand
			continue
		}
		switch {
		case cand.first < best.first-eps:
			best = cand
		case cand.first > best.first+eps:
			// keep best
		case cand.m.NumScales() < best.m.NumScales():
			best = cand
		case cand.m.NumScales() == best.m.NumScales() && cand.second < best.second-eps:
			best = cand
		}
	}
	return best.i
}

// PredictVector estimates the operator's resource usage, selecting the
// model per vector.
func (om *OperatorModels) PredictVector(v *features.Vector) float64 {
	return om.Select(v).PredictVector(v)
}
