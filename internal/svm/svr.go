package svm

import (
	"errors"
	"math"
)

// Config controls ε-SVR training.
type Config struct {
	Kernel  Kernel
	C       float64 // box constraint on |β_i|
	Epsilon float64 // insensitive-loss width (in standardized-target units)
	Iters   int     // coordinate-descent sweeps
	// MaxTrain caps the number of training rows (kernel methods are
	// quadratic in rows); extra rows are dropped deterministically by
	// stride subsampling. 0 = no cap.
	MaxTrain int
}

// DefaultConfig returns a reasonable setup; experiments override the
// kernel per the paper's per-section best choice.
func DefaultConfig() Config {
	return Config{Kernel: PolyKernel{Degree: 1}, C: 10, Epsilon: 0.05, Iters: 40, MaxTrain: 1200}
}

// Model is a trained SVR: f(x) = Σ β_i (K(x_i, x) + 1), on standardized
// features and target.
type Model struct {
	kernel Kernel
	sv     [][]float64 // standardized support vectors (β != 0)
	beta   []float64
	// feature/target standardization parameters
	mean, scale []float64
	yMean, yStd float64
}

// Train fits an ε-SVR by exact coordinate descent on the bias-absorbed
// dual. Training is deterministic.
func Train(x [][]float64, y []float64, cfg Config) (*Model, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("svm: empty or mismatched training data")
	}
	if cfg.Kernel == nil {
		return nil, errors.New("svm: nil kernel")
	}
	if cfg.MaxTrain > 0 && len(x) > cfg.MaxTrain {
		stride := float64(len(x)) / float64(cfg.MaxTrain)
		var xs [][]float64
		var ys []float64
		for i := 0; i < cfg.MaxTrain; i++ {
			j := int(float64(i) * stride)
			xs = append(xs, x[j])
			ys = append(ys, y[j])
		}
		x, y = xs, ys
	}
	n := len(x)
	k := len(x[0])

	m := &Model{kernel: cfg.Kernel, mean: make([]float64, k), scale: make([]float64, k)}
	// Standardize features (SVMs require normalized inputs — one of the
	// MART advantages the paper calls out is not needing this).
	for f := 0; f < k; f++ {
		var s float64
		for i := range x {
			s += x[i][f]
		}
		mu := s / float64(n)
		var v float64
		for i := range x {
			d := x[i][f] - mu
			v += d * d
		}
		sd := math.Sqrt(v / float64(n))
		if sd < 1e-12 {
			sd = 1
		}
		m.mean[f], m.scale[f] = mu, sd
	}
	xs := make([][]float64, n)
	for i := range x {
		r := make([]float64, k)
		for f := 0; f < k; f++ {
			r[f] = (x[i][f] - m.mean[f]) / m.scale[f]
		}
		xs[i] = r
	}
	// Standardize targets.
	var ys float64
	for _, v := range y {
		ys += v
	}
	m.yMean = ys / float64(n)
	var yv float64
	for _, v := range y {
		d := v - m.yMean
		yv += d * d
	}
	m.yStd = math.Sqrt(yv / float64(n))
	if m.yStd < 1e-12 {
		m.yStd = 1
	}
	t := make([]float64, n)
	for i, v := range y {
		t[i] = (v - m.yMean) / m.yStd
	}

	// Gram matrix with absorbed bias.
	gram := make([][]float64, n)
	for i := range gram {
		gram[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := cfg.Kernel.Eval(xs[i], xs[j]) + 1
			gram[i][j] = v
			gram[j][i] = v
		}
	}

	// Coordinate descent on
	//   min_β ½ βᵀKβ − βᵀt + ε‖β‖₁  s.t. |β_i| ≤ C.
	// The i-th coordinate optimum given the others is a soft-thresholded
	// Newton step clipped to the box.
	beta := make([]float64, n)
	f := make([]float64, n) // f = K β
	for sweep := 0; sweep < max(cfg.Iters, 1); sweep++ {
		var maxDelta float64
		for i := 0; i < n; i++ {
			kii := gram[i][i]
			if kii <= 0 {
				continue
			}
			// Residual excluding i's own contribution.
			r := t[i] - (f[i] - beta[i]*kii)
			var nb float64
			switch {
			case r > cfg.Epsilon:
				nb = (r - cfg.Epsilon) / kii
			case r < -cfg.Epsilon:
				nb = (r + cfg.Epsilon) / kii
			default:
				nb = 0
			}
			if nb > cfg.C {
				nb = cfg.C
			}
			if nb < -cfg.C {
				nb = -cfg.C
			}
			d := nb - beta[i]
			if d == 0 {
				continue
			}
			beta[i] = nb
			row := gram[i]
			for j := 0; j < n; j++ {
				f[j] += d * row[j]
			}
			if ad := math.Abs(d); ad > maxDelta {
				maxDelta = ad
			}
		}
		if maxDelta < 1e-7 {
			break
		}
	}

	for i, b := range beta {
		if b != 0 {
			m.sv = append(m.sv, xs[i])
			m.beta = append(m.beta, b)
		}
	}
	return m, nil
}

// Predict evaluates the SVR on a raw (unstandardized) feature vector.
func (m *Model) Predict(x []float64) float64 {
	z := make([]float64, len(x))
	for f := range x {
		z[f] = (x[f] - m.mean[f]) / m.scale[f]
	}
	var s float64
	for i, sv := range m.sv {
		s += m.beta[i] * (m.kernel.Eval(sv, z) + 1)
	}
	return s*m.yStd + m.yMean
}
