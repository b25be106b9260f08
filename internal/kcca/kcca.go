// Package kcca implements a plan-template nearest-neighbour estimator in
// the spirit of Ganapathi et al. [15], the related-work baseline whose
// failure to extrapolate motivates the paper (§1.1, §2): a query is
// described by per-operator-type counts and aggregate cardinalities, and
// its resource estimate is the average of the k most similar training
// queries in a correlation-weighted feature space.
//
// The full KCCA projection is replaced by per-dimension standardization
// weighted by each dimension's correlation with the target — the
// documented simplification keeps the estimator's defining property (its
// estimates can never exceed the training maximum).
package kcca

import (
	"errors"
	"math"
	"sort"

	"repro/internal/plan"
	"repro/internal/stats"
)

// PlanFeatures builds the template-level feature vector of [15]: for
// each physical operator type, (a) the number of occurrences in the plan
// and (b) the summed output cardinality of its instances.
func PlanFeatures(p *plan.Plan) []float64 {
	nk := len(plan.Kinds())
	v := make([]float64, 2*nk)
	p.Walk(func(n *plan.Node) {
		v[int(n.Kind)]++
		v[nk+int(n.Kind)] += n.Out.Rows
	})
	return v
}

// Model is the fitted nearest-neighbour estimator.
type Model struct {
	K int // neighbours averaged (3 in [15])

	xs     [][]float64 // standardized training features
	ys     []float64
	mean   []float64
	scale  []float64
	weight []float64 // per-dimension relevance weights
}

// Train fits the estimator on template-level feature vectors.
func Train(x [][]float64, y []float64, k int) (*Model, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("kcca: empty or mismatched training data")
	}
	if k < 1 {
		k = 3
	}
	d := len(x[0])
	m := &Model{K: k, ys: append([]float64(nil), y...),
		mean: make([]float64, d), scale: make([]float64, d), weight: make([]float64, d)}
	col := make([]float64, len(x))
	for f := 0; f < d; f++ {
		for i := range x {
			col[i] = x[i][f]
		}
		m.mean[f] = stats.Mean(col)
		sd := math.Sqrt(stats.Variance(col))
		if sd < 1e-12 {
			sd = 1
		}
		m.scale[f] = sd
		// Correlation-weighted metric: dimensions that track the target
		// dominate the similarity space, approximating the canonical
		// directions of KCCA.
		w := math.Abs(stats.Pearson(col, y))
		m.weight[f] = 0.1 + w
	}
	m.xs = make([][]float64, len(x))
	for i := range x {
		m.xs[i] = m.standardize(x[i])
	}
	return m, nil
}

func (m *Model) standardize(x []float64) []float64 {
	z := make([]float64, len(x))
	for f := range x {
		z[f] = (x[f] - m.mean[f]) / m.scale[f] * m.weight[f]
	}
	return z
}

// Predict averages the resource usage of the K nearest training queries.
func (m *Model) Predict(x []float64) float64 {
	z := m.standardize(x)
	type cand struct {
		dist float64
		y    float64
	}
	cands := make([]cand, len(m.xs))
	for i, t := range m.xs {
		var d2 float64
		for f := range z {
			d := z[f] - t[f]
			d2 += d * d
		}
		cands[i] = cand{dist: d2, y: m.ys[i]}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
	k := m.K
	if k > len(cands) {
		k = len(cands)
	}
	var s float64
	for i := 0; i < k; i++ {
		s += cands[i].y
	}
	return s / float64(k)
}
