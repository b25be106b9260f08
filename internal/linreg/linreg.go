// Package linreg implements linear least-squares regression with greedy
// forward feature selection — the LINEAR baseline of §7 and the
// underlying statistical model of the operator-level approach of Akdere
// et al. [8], which the experiments also compare against.
package linreg

import (
	"errors"
	"math"

	"repro/internal/stats"
)

// Config controls training.
type Config struct {
	// Ridge is the L2 regularization weight.
	Ridge float64
	// MaxFeatures caps the number of selected features (0 = no cap).
	MaxFeatures int
	// MinGain is the minimum relative MSE improvement for greedy
	// selection to accept another feature.
	MinGain float64
}

// DefaultConfig returns the standard setup.
func DefaultConfig() Config {
	return Config{Ridge: 1e-6, MaxFeatures: 0, MinGain: 1e-3}
}

// Model is a fitted sparse linear model over a subset of features.
type Model struct {
	// Features are the selected column indexes, in selection order.
	Features []int
	// Weights holds [intercept, w_Features[0], w_Features[1], ...].
	Weights []float64
}

// Train fits a linear model with greedy forward feature selection: start
// from the intercept-only model and repeatedly add the feature that
// reduces training MSE the most, stopping when improvement falls below
// cfg.MinGain (mirroring the "linear regression combined with feature
// selection" setup used for the baselines).
func Train(x [][]float64, y []float64, cfg Config) (*Model, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, errors.New("linreg: empty or mismatched training data")
	}
	k := len(x[0])
	maxF := cfg.MaxFeatures
	if maxF <= 0 || maxF > k {
		maxF = k
	}

	selected := []int{}
	inSel := make([]bool, k)
	bestMSE := constantMSE(y)
	bestW := []float64{stats.Mean(y)}

	sub := make([][]float64, n) // reused feature submatrix
	for i := range sub {
		sub[i] = make([]float64, 0, maxF)
	}

	for len(selected) < maxF {
		if bestMSE <= 1e-12 {
			break // already a perfect fit (e.g. constant target)
		}
		bestFeat := -1
		var bestFeatMSE float64
		var bestFeatW []float64
		for f := 0; f < k; f++ {
			if inSel[f] {
				continue
			}
			for i := range sub {
				sub[i] = sub[i][:len(selected)]
				sub[i] = append(sub[i], x[i][f])
			}
			w, err := stats.LeastSquares(sub, y, cfg.Ridge)
			if err != nil {
				continue
			}
			mse := trainMSE(sub, y, w)
			if bestFeat < 0 || mse < bestFeatMSE {
				bestFeat, bestFeatMSE = f, mse
				bestFeatW = append([]float64(nil), w...)
			}
		}
		if bestFeat < 0 {
			break
		}
		if bestMSE > 0 && (bestMSE-bestFeatMSE)/bestMSE < cfg.MinGain {
			break
		}
		selected = append(selected, bestFeat)
		inSel[bestFeat] = true
		bestMSE = bestFeatMSE
		bestW = bestFeatW
		// Bake the accepted feature into the reusable submatrix.
		for i := range sub {
			sub[i] = sub[i][:len(selected)-1]
			sub[i] = append(sub[i], x[i][bestFeat])
		}
		if bestMSE == 0 {
			break
		}
	}
	return &Model{Features: selected, Weights: bestW}, nil
}

// Predict evaluates the model on a full feature vector.
func (m *Model) Predict(x []float64) float64 {
	y := m.Weights[0]
	for i, f := range m.Features {
		y += m.Weights[i+1] * x[f]
	}
	return y
}

func constantMSE(y []float64) float64 {
	m := stats.Mean(y)
	var s float64
	for _, v := range y {
		d := v - m
		s += d * d
	}
	return s / float64(len(y))
}

func trainMSE(x [][]float64, y []float64, w []float64) float64 {
	var s float64
	for i := range x {
		d := stats.PredictLinear(w, x[i]) - y[i]
		s += d * d
	}
	mse := s / float64(len(x))
	if math.IsNaN(mse) || math.IsInf(mse, 0) {
		return math.MaxFloat64
	}
	return mse
}
