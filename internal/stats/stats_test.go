package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRatioErr(t *testing.T) {
	cases := []struct {
		est, truth, want float64
	}{
		{10, 10, 1},
		{20, 10, 2},
		{10, 20, 2},
		{15, 10, 1.5},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := RatioErr(c.est, c.truth); !almost(got, c.want, 1e-12) {
			t.Errorf("RatioErr(%v,%v) = %v, want %v", c.est, c.truth, got, c.want)
		}
	}
	if got := RatioErr(0, 5); got != 1e6 {
		t.Errorf("RatioErr(0,5) = %v, want capped sentinel", got)
	}
}

func TestRatioErrSymmetry(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a)+0.1, math.Abs(b)+0.1
		return almost(RatioErr(a, b), RatioErr(b, a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatioErrAtLeastOne(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a)+0.1, math.Abs(b)+0.1
		return RatioErr(a, b) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestL1RelErr(t *testing.T) {
	if got := L1RelErr(10, 5); !almost(got, 0.5, 1e-12) {
		t.Errorf("L1RelErr(10,5) = %v", got)
	}
	if got := L1RelErr(0, 5); !almost(got, 1, 1e-12) {
		t.Errorf("L1RelErr(0,5) = %v, want fallback to truth denominator", got)
	}
	if got := L1RelErr(0, 0); got != 0 {
		t.Errorf("L1RelErr(0,0) = %v", got)
	}
}

func TestEvaluateBuckets(t *testing.T) {
	est := []float64{10, 10, 10, 10}
	truth := []float64{10, 14, 19, 50} // R = 1, 1.4, 1.9, 5
	res := Evaluate(est, truth)
	if !almost(res.Buckets.LE15, 0.5, 1e-12) {
		t.Errorf("LE15 = %v, want 0.5", res.Buckets.LE15)
	}
	if !almost(res.Buckets.Mid, 0.25, 1e-12) {
		t.Errorf("Mid = %v, want 0.25", res.Buckets.Mid)
	}
	if !almost(res.Buckets.GT2, 0.25, 1e-12) {
		t.Errorf("GT2 = %v, want 0.25", res.Buckets.GT2)
	}
	if res.Buckets.NQueries != 4 {
		t.Errorf("NQueries = %d", res.Buckets.NQueries)
	}
	sum := res.Buckets.LE15 + res.Buckets.Mid + res.Buckets.GT2
	if !almost(sum, 1, 1e-12) {
		t.Errorf("buckets sum to %v", sum)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	res := Evaluate(nil, nil)
	if res.L1 != 0 || res.Buckets.NQueries != 0 {
		t.Errorf("Evaluate(nil) = %+v", res)
	}
}

func TestEvaluatePerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	res := Evaluate(x, x)
	if res.L1 != 0 || res.Buckets.LE15 != 1 {
		t.Errorf("perfect estimates scored %+v", res)
	}
}

func TestMeanVariance(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); !almost(got, 5, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(x); !almost(got, 4, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-slice Mean/Variance should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); !almost(got, 3, 1e-12) {
		t.Errorf("median = %v", got)
	}
	if got := Quantile(xs, 0.25); !almost(got, 2, 1e-12) {
		t.Errorf("q25 = %v", got)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := Pearson(x, y); !almost(got, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(x, neg); !almost(got, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", got)
	}
	if got := Pearson(x, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("Pearson with constant = %v", got)
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 1, 1e-9) || !almost(x[1], 3, 1e-9) {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Fatal("expected error for singular matrix")
	}
}

func TestLeastSquaresRecoversLine(t *testing.T) {
	// y = 3 + 2*x1 - x2
	var xs [][]float64
	var ys []float64
	for i := 0; i < 50; i++ {
		x1 := float64(i)
		x2 := float64(i % 7)
		xs = append(xs, []float64{x1, x2})
		ys = append(ys, 3+2*x1-x2)
	}
	w, err := LeastSquares(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(w[0], 3, 1e-4) || !almost(w[1], 2, 1e-6) || !almost(w[2], -1, 1e-4) {
		t.Errorf("weights = %v, want [3 2 -1]", w)
	}
	if got := PredictLinear(w, []float64{10, 3}); !almost(got, 20, 1e-4) {
		t.Errorf("PredictLinear = %v, want 20", got)
	}
}

func TestLeastSquaresCollinear(t *testing.T) {
	// Duplicate feature columns should still yield a usable (ridge) fit.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 30; i++ {
		v := float64(i)
		xs = append(xs, []float64{v, v})
		ys = append(ys, 4*v)
	}
	w, err := LeastSquares(xs, ys, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	pred := PredictLinear(w, []float64{10, 10})
	if !almost(pred, 40, 0.1) {
		t.Errorf("collinear prediction = %v, want ~40", pred)
	}
}

func TestFitScalar(t *testing.T) {
	g := []float64{1, 2, 3, 4}
	y := []float64{2.5, 5, 7.5, 10}
	if got := FitScalar(g, y); !almost(got, 2.5, 1e-12) {
		t.Errorf("FitScalar = %v, want 2.5", got)
	}
	if got := FitScalar([]float64{0, 0}, []float64{1, 2}); got != 0 {
		t.Errorf("FitScalar zero-g = %v", got)
	}
}

func TestQuantileMatchesSort(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		lo, hi := MinMax(xs)
		return Quantile(xs, 0) == lo && Quantile(xs, 1) == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
