package stats

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear system cannot be solved because
// the matrix is (numerically) singular even after ridge damping.
var ErrSingular = errors.New("stats: singular system")

// SolveLinear solves A·x = b for square A (row-major [][]float64) using
// Gaussian elimination with partial pivoting. A and b are not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, errors.New("stats: SolveLinear dimension mismatch")
	}
	// Copy into an augmented matrix.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, errors.New("stats: SolveLinear non-square matrix")
		}
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv := 1 / m[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, nil
}

// LeastSquares fits y ≈ X·w + w0 by ridge-regularized normal equations.
// X is row-major (one row per example). lambda >= 0 is the ridge factor
// applied to the feature weights (not the intercept); a tiny default is
// always added for numerical stability. The returned slice is
// [w0, w1, ..., wk] with the intercept first.
func LeastSquares(x [][]float64, y []float64, lambda float64) ([]float64, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, errors.New("stats: LeastSquares dimension mismatch")
	}
	k := len(x[0])
	d := k + 1 // intercept + features
	ata := make([][]float64, d)
	for i := range ata {
		ata[i] = make([]float64, d)
	}
	atb := make([]float64, d)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		if len(x[i]) != k {
			return nil, errors.New("stats: LeastSquares ragged matrix")
		}
		row[0] = 1
		copy(row[1:], x[i])
		for a := 0; a < d; a++ {
			if row[a] == 0 {
				continue
			}
			atb[a] += row[a] * y[i]
			for b := a; b < d; b++ {
				ata[a][b] += row[a] * row[b]
			}
		}
	}
	for a := 0; a < d; a++ {
		for b := 0; b < a; b++ {
			ata[a][b] = ata[b][a]
		}
	}
	reg := lambda
	if reg < 1e-9 {
		reg = 1e-9
	}
	for a := 1; a < d; a++ {
		ata[a][a] += reg
	}
	w, err := SolveLinear(ata, atb)
	if err != nil {
		// Retry with a heavier ridge before giving up.
		for a := 1; a < d; a++ {
			ata[a][a] += 1e-3 * (1 + ata[a][a])
		}
		w, err = SolveLinear(ata, atb)
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

// PredictLinear applies weights [w0, w1...wk] (intercept first) to a
// feature vector.
func PredictLinear(w, x []float64) float64 {
	y := w[0]
	for i, v := range x {
		y += w[i+1] * v
	}
	return y
}

// FitScalar fits the single coefficient alpha minimizing
// Σ (y_i − alpha·g_i)² — used to fit candidate scaling functions of the
// form R = α·g(F). It returns 0 when Σ g² is zero.
func FitScalar(g, y []float64) float64 {
	if len(g) != len(y) {
		panic("stats: FitScalar length mismatch")
	}
	var num, den float64
	for i := range g {
		num += g[i] * y[i]
		den += g[i] * g[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
