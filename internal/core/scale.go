// Package core implements the paper's primary contribution: combined
// models that pair MART regression-tree models with fixed-form scaling
// functions (§6). A combined model predicts resource-per-unit-of-g(F̂)
// with a MART model trained on normalized features and multiplies the
// estimate back by the scaling function, allowing extrapolation beyond
// the feature ranges seen during training. At estimation time a
// heuristic based on out-of-range ratios picks, per operator, among the
// default model and the scaled candidates (§6.3).
package core

import (
	"fmt"
	"math"

	"repro/internal/features"
)

// ScaleKind is the functional form of a scaling function (§6.2): the
// forms the paper fits against systematic parameter sweeps.
type ScaleKind int

const (
	ScaleLinear    ScaleKind = iota // g(F) = F
	ScaleNLogN                      // g(F) = F·log2(F+2)
	ScaleLog                        // g(F) = log2(F+2)
	ScaleSqrt                       // g(F) = F^0.5
	ScaleQuadratic                  // g(F) = F²
	// Two-input forms (§6.2 "Multi-feature Scaling", for joins).
	ScaleSum2  // g(F1,F2) = F1 + F2
	ScaleProd2 // g(F1,F2) = F1·F2
	ScaleXLogY // g(F1,F2) = F1·log2(F2+2)
)

// String names the form the way the figures label it.
func (k ScaleKind) String() string {
	switch k {
	case ScaleLinear:
		return "linear"
	case ScaleNLogN:
		return "nlogn"
	case ScaleLog:
		return "log"
	case ScaleSqrt:
		return "sqrt"
	case ScaleQuadratic:
		return "quadratic"
	case ScaleSum2:
		return "sum"
	case ScaleProd2:
		return "product"
	case ScaleXLogY:
		return "xlogy"
	}
	return fmt.Sprintf("ScaleKind(%d)", int(k))
}

// TwoInput reports whether the form consumes two features.
func (k ScaleKind) TwoInput() bool {
	return k == ScaleSum2 || k == ScaleProd2 || k == ScaleXLogY
}

// evalForm computes g for raw feature values (v2 ignored for
// single-input forms). Values are clamped at 0.
func (k ScaleKind) evalForm(v1, v2 float64) float64 {
	if v1 < 0 {
		v1 = 0
	}
	if v2 < 0 {
		v2 = 0
	}
	switch k {
	case ScaleLinear:
		return v1
	case ScaleNLogN:
		return v1 * math.Log2(v1+2)
	case ScaleLog:
		return math.Log2(v1 + 2)
	case ScaleSqrt:
		return math.Sqrt(v1)
	case ScaleQuadratic:
		return v1 * v1
	case ScaleSum2:
		return v1 + v2
	case ScaleProd2:
		return v1 * v2
	case ScaleXLogY:
		return v1 * math.Log2(v2+2)
	}
	panic("core: unknown scale kind")
}

// SingleKinds lists the single-input candidate forms fitted by §6.2.
func SingleKinds() []ScaleKind {
	return []ScaleKind{ScaleLinear, ScaleNLogN, ScaleLog, ScaleSqrt, ScaleQuadratic}
}

// ScaleFn is a concrete scaling function bound to one or two features.
type ScaleFn struct {
	Kind ScaleKind
	F1   features.ID
	F2   features.ID // used by two-input kinds only
}

// String renders e.g. "nlogn(CIN1)" or "xlogy(CIN1, SSEEKTABLE)".
func (s ScaleFn) String() string {
	if s.Kind.TwoInput() {
		return fmt.Sprintf("%s(%s, %s)", s.Kind, s.F1, s.F2)
	}
	return fmt.Sprintf("%s(%s)", s.Kind, s.F1)
}

// Eval computes g over the feature vector. Inputs are clamped below at
// one unit (one tuple, one byte, one page): an operator's cost does not
// vanish with an empty input, and dividing training targets by a
// near-zero g would produce unbounded per-unit targets.
func (s ScaleFn) Eval(v *features.Vector) float64 {
	v1 := v.Get(s.F1)
	if v1 < 1 {
		v1 = 1
	}
	v2 := v.Get(s.F2)
	if s.Kind.TwoInput() && v2 < 1 {
		v2 = 1
	}
	g := s.Kind.evalForm(v1, v2)
	if g < 1e-9 {
		g = 1e-9
	}
	return g
}

// ScaledBy returns the features this function scales by: the features
// removed from the scaled model's inputs and used for dependent-feature
// normalization.
func (s ScaleFn) ScaledBy() []features.ID {
	if s.Kind.TwoInput() {
		return []features.ID{s.F1, s.F2}
	}
	return []features.ID{s.F1}
}
