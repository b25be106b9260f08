// Package stats provides the numeric building blocks shared by the
// learning models and the experiment harness: error metrics as defined in
// §7.1 of the paper, dense linear least squares, and small vector/matrix
// helpers.
package stats

import (
	"fmt"
	"math"
)

// RatioBuckets holds the fraction of test queries falling into each
// ratio-error bucket reported by the paper's tables:
//
//	R ≤ 1.5, 1.5 < R ≤ 2 and R > 2, with
//	R = max(est/true, true/est).
type RatioBuckets struct {
	LE15     float64 // fraction with R <= 1.5
	Mid      float64 // fraction with 1.5 < R <= 2
	GT2      float64 // fraction with R > 2
	NQueries int
}

// String formats the buckets as percentages the way the paper's tables do.
func (b RatioBuckets) String() string {
	return fmt.Sprintf("%6.2f%% %6.2f%% %6.2f%%", b.LE15*100, b.Mid*100, b.GT2*100)
}

// RatioErr returns max(est/true, true/est), clamping degenerate inputs.
// A non-positive estimate against a positive truth (or vice versa) counts
// as an unbounded-ratio failure, capped at a large sentinel so that
// aggregation stays finite.
func RatioErr(est, truth float64) float64 {
	const cap = 1e6
	if est <= 0 && truth <= 0 {
		return 1
	}
	if est <= 0 || truth <= 0 {
		return cap
	}
	r := est / truth
	if r < 1 {
		r = 1 / r
	}
	if r > cap {
		return cap
	}
	return r
}

// L1RelErr is the paper's per-query relative error |est - true| / est.
// (Note the estimate, not the truth, in the denominator — this follows
// §7.1 verbatim.) Degenerate estimates fall back to dividing by the truth
// so a zero estimate does not produce an infinity.
func L1RelErr(est, truth float64) float64 {
	d := math.Abs(est - truth)
	if est > 0 {
		return d / est
	}
	if truth > 0 {
		return d / truth
	}
	return 0
}

// EvalResult aggregates the two error metrics over a test set.
type EvalResult struct {
	L1      float64
	Buckets RatioBuckets
}

// Evaluate computes the paper's metrics over parallel slices of estimates
// and true values. It panics if the slices differ in length and returns a
// zero result for empty input.
func Evaluate(est, truth []float64) EvalResult {
	if len(est) != len(truth) {
		panic("stats: Evaluate slice length mismatch")
	}
	n := len(est)
	if n == 0 {
		return EvalResult{}
	}
	var l1 float64
	var le15, mid, gt2 int
	for i := range est {
		l1 += L1RelErr(est[i], truth[i])
		switch r := RatioErr(est[i], truth[i]); {
		case r <= 1.5:
			le15++
		case r <= 2:
			mid++
		default:
			gt2++
		}
	}
	return EvalResult{
		L1: l1 / float64(n),
		Buckets: RatioBuckets{
			LE15:     float64(le15) / float64(n),
			Mid:      float64(mid) / float64(n),
			GT2:      float64(gt2) / float64(n),
			NQueries: n,
		},
	}
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance, or 0 for fewer than 2 values.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// MinMax returns the smallest and largest value in x. It panics on an
// empty slice.
func MinMax(x []float64) (lo, hi float64) {
	if len(x) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Quantile returns the q-quantile (0 <= q <= 1) of the *sorted* slice xs
// using linear interpolation. It panics if xs is empty.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i]*(1-frac) + xs[i+1]*frac
}

// SelectQuantile returns what Quantile returns for xs once sorted
// (sort.Float64s order, a NaN before every number) without sorting it:
// it selects the one or two order statistics Quantile reads, in
// expected linear time, reordering xs as it goes. It panics if xs is
// empty.
func SelectQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: SelectQuantile of empty slice")
	}
	n := len(xs)
	if q <= 0 {
		return selectKth(xs, 0)
	}
	if q >= 1 {
		return selectKth(xs, n-1)
	}
	pos := q * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return selectKth(xs, n-1)
	}
	a := selectKth(xs, i)
	// Nothing after position i now orders before a, so the next order
	// statistic is the least of what follows it.
	b := xs[i+1]
	for _, x := range xs[i+2:] {
		if floatLess(x, b) {
			b = x
		}
	}
	return a*(1-frac) + b*frac
}

// selectKth reorders xs so that xs[k] holds what sorted position k
// would, nothing before it orders after it and nothing after it orders
// before it, and returns xs[k]. It partitions three ways around a
// median-of-three pivot, so runs of equal values cost one pass.
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)
	for hi-lo > 1 {
		p := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		// xs[lo:lt] orders before p, xs[lt:i] ties it, xs[gt:hi] after.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case floatLess(x, p):
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case floatLess(p, x):
				gt--
				xs[gt], xs[i] = x, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// median3 is the middle of three values in floatLess order.
func median3(a, b, c float64) float64 {
	if floatLess(b, a) {
		a, b = b, a
	}
	if floatLess(c, b) {
		b = c
		if floatLess(b, a) {
			b = a
		}
	}
	return b
}

// floatLess is sort.Float64s' order: numeric, with NaN first.
func floatLess(x, y float64) bool { return x < y || (x != x && y == y) }

// Pearson returns the Pearson correlation of two parallel slices, or 0 if
// either has no variance.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
