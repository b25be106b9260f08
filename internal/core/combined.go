package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/features"
	"repro/internal/mart"
	"repro/internal/plan"
)

// Sample is one training observation for an operator model: the node's
// feature vector and its measured resource usage.
type Sample struct {
	X features.Vector
	Y float64
}

// CombinedModel is a scaled MART model (§6.1): a MART model M′ trained
// to predict resource-per-unit-of-g(F̂), multiplied back by the scaling
// function at prediction time. An empty Scales slice makes it a plain
// (default-style) MART model — both cases share the out_ratio machinery.
//
// A CombinedModel is immutable after TrainCombined/decode: PredictVector,
// OutRatio and the selection helpers only read fields (transform
// allocates its output per call), so concurrent prediction is safe.
type CombinedModel struct {
	Op       plan.OpKind
	Resource plan.ResourceKind
	// Scales are applied multiplicatively; at most two per §6.1.
	Scales []ScaleFn
	// Inputs are the MART input features after removing the scaled-by
	// features (modification 2 of §6.1), in fixed order.
	Inputs []features.ID
	// normalizeBy[i] is the scaled-by feature that divides Inputs[i]
	// (modification 3: dependent-feature normalization), or -1.
	normalizeBy []features.ID
	// noNorm disables dependent-feature normalization (ablation).
	noNorm bool
	// Low/High are the training ranges of the transformed inputs,
	// parallel to Inputs, driving out_ratio (§6.3).
	Low, High []float64
	// ScaleLow/ScaleHigh record the raw training ranges of the
	// scaled-by features. Scaling extrapolates the *upper* side; a value
	// far below the training low means the proportionality assumption is
	// untested there and selection penalizes the candidate.
	ScaleLow, ScaleHigh map[features.ID]float64
	// YLow/YHigh bound the (possibly per-unit) training targets; MART
	// outputs are clamped into this range since a regression tree cannot
	// legitimately predict outside its target range (only boosting
	// overshoot does).
	YLow, YHigh float64
	// TrainErr is the mean relative training error, used to pick the
	// operator's default model.
	TrainErr float64
	// compiled is the serving layout of the MART ensemble, built by
	// every constructor (training, JSON load, slab restore) and used by
	// every prediction path. It is bit-identical to the pointer walk
	// (see mart.Compile).
	compiled *mart.Compiled
	// blob is the ensemble's compact binary encoding (§7.3), the form
	// both model files store: encoded once by training, the decoded
	// "mart" bytes after a JSON load, an alias into the slab's BLOBS
	// section after a slab restore.
	blob []byte
	// scaleFeats lists the ScaleLow/ScaleHigh keys in ascending feature
	// order. The penalty sum below iterates this slice instead of the
	// map so selection scores do not depend on map iteration order.
	scaleFeats []features.ID
}

// scaledBySet returns the set of features this model scales by.
func (m *CombinedModel) scaledBySet() map[features.ID]bool {
	s := map[features.ID]bool{}
	for _, sc := range m.Scales {
		for _, f := range sc.ScaledBy() {
			s[f] = true
		}
	}
	return s
}

// buildInputs derives the MART input features and their normalization
// sources from the operator's applicable features and the scale set.
func (m *CombinedModel) buildInputs() {
	scaled := m.scaledBySet()
	// Dependent-feature normalization: feature G is divided by scaled-by
	// feature F̂ when G ∈ Dependents(F̂). Scaled-by features are visited
	// in declaration order (not map order) and the first claiming a
	// dependent wins, so training is deterministic when a dependent
	// feature is shared by both scaled-by features of a two-scale model.
	normBy := map[features.ID]features.ID{}
	if !m.noNorm {
		for _, sc := range m.Scales {
			for _, f := range sc.ScaledBy() {
				for _, g := range features.DependentsWithin(f, m.Op) {
					if _, taken := normBy[g]; !scaled[g] && !taken {
						normBy[g] = f
					}
				}
			}
		}
	}
	m.Inputs = m.Inputs[:0]
	m.normalizeBy = m.normalizeBy[:0]
	for _, id := range features.ForOperator(m.Op) {
		if scaled[id] {
			continue // modification 2: drop the scaled-by feature
		}
		m.Inputs = append(m.Inputs, id)
		if src, ok := normBy[id]; ok {
			m.normalizeBy = append(m.normalizeBy, src)
		} else {
			m.normalizeBy = append(m.normalizeBy, -1)
		}
	}
}

// transform maps a raw feature vector into the model's MART input space.
func (m *CombinedModel) transform(v *features.Vector) []float64 {
	x := make([]float64, len(m.Inputs))
	m.fillTransform(x, v)
	return x
}

// fillTransform writes the transformed inputs into dst, which must have
// len(m.Inputs) elements. Shared by transform and the batch path so
// both compute exactly the same values.
func (m *CombinedModel) fillTransform(dst []float64, v *features.Vector) {
	for i, id := range m.Inputs {
		val := v.Get(id)
		if src := m.normalizeBy[i]; src >= 0 {
			d := v.Get(src)
			if d < 1e-9 {
				d = 1e-9
			}
			val /= d
		}
		dst[i] = val
	}
}

// divisor is the combined scaling factor Πg(F̂) for a vector.
func (m *CombinedModel) divisor(v *features.Vector) float64 {
	d := 1.0
	for _, sc := range m.Scales {
		d *= sc.Eval(v)
	}
	if d < 1e-12 {
		d = 1e-12
	}
	return d
}

// TrainCombined fits the scaled model on the samples: the training
// targets are divided by g(F̂) (modification 1 of §6.1), dependent
// features are normalized and the scaled-by features removed.
func TrainCombined(op plan.OpKind, resource plan.ResourceKind, scales []ScaleFn,
	samples []Sample, cfg Config) (*CombinedModel, error) {

	if len(samples) == 0 {
		return nil, errors.New("core: no training samples")
	}
	m := &CombinedModel{Op: op, Resource: resource, Scales: scales, noNorm: cfg.DisableNormalization}
	m.buildInputs()

	xs := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	m.Low = make([]float64, len(m.Inputs))
	m.High = make([]float64, len(m.Inputs))
	for i := range m.Low {
		m.Low[i] = math.Inf(1)
		m.High[i] = math.Inf(-1)
	}
	m.ScaleLow = map[features.ID]float64{}
	m.ScaleHigh = map[features.ID]float64{}
	for f := range m.scaledBySet() {
		m.ScaleLow[f] = math.Inf(1)
		m.ScaleHigh[f] = math.Inf(-1)
	}
	m.scaleFeats = sortedScaleFeatures(m)
	for i := range samples {
		x := m.transform(&samples[i].X)
		xs[i] = x
		ys[i] = samples[i].Y / m.divisor(&samples[i].X)
		for j, v := range x {
			if v < m.Low[j] {
				m.Low[j] = v
			}
			if v > m.High[j] {
				m.High[j] = v
			}
		}
		for f := range m.ScaleLow {
			v := samples[i].X.Get(f)
			if v < m.ScaleLow[f] {
				m.ScaleLow[f] = v
			}
			if v > m.ScaleHigh[f] {
				m.ScaleHigh[f] = v
			}
		}
	}
	if len(scales) > 0 {
		winsorize(ys, 0.98)
	}
	m.YLow, m.YHigh = math.Inf(1), math.Inf(-1)
	for _, y := range ys {
		if y < m.YLow {
			m.YLow = y
		}
		if y > m.YHigh {
			m.YHigh = y
		}
	}
	mm, fitted, err := mart.TrainFitted(xs, ys, cfg.Mart)
	if err != nil {
		return nil, fmt.Errorf("core: training %s/%s %v: %w", op, resource, scales, err)
	}
	if m.blob, err = mm.EncodeBinary(); err != nil {
		return nil, fmt.Errorf("core: encoding %s/%s %v: %w", op, resource, scales, err)
	}
	m.compiled = mart.Compile(mm)

	// fitted[i] is bit for bit what compiled.Predict(xs[i]) would return, so
	// the training error needs no second walk of the ensemble.
	var errSum float64
	for i := range samples {
		errSum += relErr(m.scaleBack(fitted[i], &samples[i].X), samples[i].Y)
	}
	m.TrainErr = errSum / float64(len(samples))
	return m, nil
}

// PredictVector estimates the operator's resource usage from a raw
// feature vector: MART on the transformed inputs times the scaling
// functions. Estimates are clamped at 0 (resources are non-negative).
func (m *CombinedModel) PredictVector(v *features.Vector) float64 {
	return m.scaleBack(m.compiled.Predict(m.transform(v)), v)
}

// scaleBack turns the ensemble's per-unit output u for vector v into
// the estimate: clamped into the training target range, multiplied by
// the scaling functions, and floored at 0.
func (m *CombinedModel) scaleBack(u float64, v *features.Vector) float64 {
	p := clampY(u, m.YLow, m.YHigh) * m.divisor(v)
	if p < 0 || math.IsNaN(p) {
		return 0
	}
	return p
}

func clampY(u, lo, hi float64) float64 {
	if u < lo {
		u = lo
	}
	if u > hi {
		u = hi
	}
	return u
}

// ExplainMargins records the per-tree cumulative margins of the
// underlying MART ensemble for a raw feature vector: margins[t] is the
// per-unit prediction after base and the first t+1 trees, in the
// model's transformed target space (before the YLow/YHigh clamp and
// the scale multiplication that PredictVector applies on top). Margins
// are appended to dst and the slice returned. Compiled scoring is
// bit-identical to the pointer walk Predict uses, so the last margin
// is exactly the raw ensemble output behind PredictVector.
func (m *CombinedModel) ExplainMargins(v *features.Vector, dst []float64) []float64 {
	dst, _ = m.compiled.PredictMargins(m.transform(v), dst)
	return dst
}

// OutRatio quantifies how far outside the training range the vector
// falls for this model (§6.3): the maximum, over the model's input
// features, of the distance outside [low, high] normalized by the range
// width. Zero means every feature is in range.
//
// (The paper's formula takes a min of the two one-sided distances, of
// which at most one is nonzero; the distance outside the range is the
// evident intent and is what we compute.)
func (m *CombinedModel) OutRatio(v *features.Vector) float64 {
	first, _ := m.topTwoOutRatios(v)
	return first
}

// topTwoOutRatios returns the largest and second-largest per-feature
// out-ratios, used for tie-breaking during model selection.
func (m *CombinedModel) topTwoOutRatios(v *features.Vector) (first, second float64) {
	return m.outRatiosOf(m.transform(v))
}

// outRatiosOf computes the top-two out-ratios from an already
// transformed input row (x must be m's transform of the vector under
// consideration). Split out so the batch path can reuse a scratch
// buffer for the transform.
func (m *CombinedModel) outRatiosOf(x []float64) (first, second float64) {
	for i, val := range x {
		lo, hi := m.Low[i], m.High[i]
		width := hi - lo
		if width <= 0 {
			width = math.Max(math.Abs(hi), 1)
		}
		var d float64
		switch {
		case val < lo:
			d = (lo - val) / width
		case val > hi:
			d = (val - hi) / width
		}
		if d > first {
			first, second = d, first
		} else if d > second {
			second = d
		}
	}
	return first, second
}

// belowScalePenalty returns a large penalty when any scaled-by feature
// falls substantially below its training range. The scaled model's
// per-unit assumption is only validated upward; selecting it for a
// near-empty input would multiply a per-unit estimate by ~0 while the
// operator's true cost (e.g. the build side of a hash join with an
// empty probe) does not vanish.
func (m *CombinedModel) belowScalePenalty(v *features.Vector) float64 {
	var p float64
	for _, f := range m.scaleFeats {
		lo := m.ScaleLow[f]
		val := v.Get(f)
		if val < lo*0.5 {
			den := lo
			if den < 1 {
				den = 1
			}
			p += 1e6 * (lo - val) / den
		}
	}
	return p
}

// NumScales returns how many scaling features the model uses.
func (m *CombinedModel) NumScales() int {
	n := 0
	for _, s := range m.Scales {
		n += len(s.ScaledBy())
	}
	return n
}

// EncodedSize is the length of the ensemble's compact binary encoding
// (§7.3), the bytes each model file stores for it.
func (m *CombinedModel) EncodedSize() int { return len(m.blob) }

// Name renders a short description, e.g. "Sort/CPU[nlogn(CIN1)]".
func (m *CombinedModel) Name() string {
	if len(m.Scales) == 0 {
		return fmt.Sprintf("%s/%s[default]", m.Op, m.Resource)
	}
	s := ""
	for i, sc := range m.Scales {
		if i > 0 {
			s += "×"
		}
		s += sc.String()
	}
	return fmt.Sprintf("%s/%s[%s]", m.Op, m.Resource, s)
}

// winsorize clamps the upper tail of per-unit targets at the given
// quantile. When the proportionality assumption behind a scaling
// function holds, per-unit targets are tightly distributed; the far
// upper tail comes from operators whose cost is dominated by a *different*
// input (e.g. the build side of a hash join with a near-empty probe) and
// would otherwise inflate the scaled model's predictions by orders of
// magnitude when multiplied back by a large feature value.
func winsorize(ys []float64, q float64) {
	if len(ys) < 8 {
		return
	}
	sorted := append([]float64(nil), ys...)
	sort.Float64s(sorted)
	cap := sorted[int(q*float64(len(sorted)-1))]
	for i, v := range ys {
		if v > cap {
			ys[i] = cap
		}
	}
}

func relErr(est, truth float64) float64 {
	den := est
	if den <= 0 {
		den = truth
	}
	if den <= 0 {
		return 0
	}
	return math.Abs(est-truth) / den
}
