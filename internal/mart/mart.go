package mart

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/xrand"
)

// Config controls MART training. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	Iterations    int     // number of boosting iterations (M)
	MaxLeaves     int     // leaves per tree (≤ 10 in the paper; at most 32)
	LearningRate  float64 // shrinkage applied to each tree
	SubsampleFrac float64 // stochastic-GB row subsample per iteration
	MinLeafSize   int     // minimum rows per leaf
	Seed          uint64
	// Workers bounds the tree-level training parallelism: row binning,
	// per-node histogram split finding and the ensemble-prediction
	// update fan out across this many workers. <= 0 selects GOMAXPROCS;
	// 1 trains entirely on the calling goroutine. The trained model is
	// bit-identical at any worker count (the boosting iterations
	// themselves are inherently sequential). Callers that already fan
	// out at the model level (internal/core) set this explicitly so the
	// two layers share one core budget.
	Workers int
}

// DefaultConfig mirrors the paper's setup (§7: M = 1K iterations, 10
// leaves) with standard shrinkage and subsampling. Experiments that
// train hundreds of models lower Iterations for speed; accuracy saturates
// far earlier on our data sizes.
func DefaultConfig() Config {
	return Config{
		Iterations:    1000,
		MaxLeaves:     10,
		LearningRate:  0.1,
		SubsampleFrac: 0.7,
		MinLeafSize:   3,
		Seed:          17,
	}
}

// Model is a trained MART ensemble.
type Model struct {
	Base  float64 // initial constant prediction (training mean)
	Rate  float64 // learning rate the trees were trained with
	Trees []Tree
}

// Train fits a MART model. x is row-major with one feature vector per
// example. Training is deterministic given cfg.Seed.
func Train(x [][]float64, y []float64, cfg Config) (*Model, error) {
	m, _, err := TrainFitted(x, y, cfg)
	return m, err
}

// TrainFitted is Train that also returns the fit's own predictions on
// the training rows: the i-th is bit-identical to Predict(x[i]), because
// training maintains it by the same base, += rate·leaf sequence.
func TrainFitted(x [][]float64, y []float64, cfg Config) (*Model, []float64, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, nil, errors.New("mart: empty or mismatched training data")
	}
	nFeatures := len(x[0])
	for i := range x {
		if len(x[i]) != nFeatures {
			return nil, nil, errors.New("mart: ragged feature matrix")
		}
		// A NaN feature would bin left but route right at prediction,
		// and a non-finite target poisons the base mean.
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return nil, nil, fmt.Errorf("mart: row %d: target is %v", i, y[i])
		}
		for f, v := range x[i] {
			if math.IsNaN(v) {
				return nil, nil, fmt.Errorf("mart: row %d: feature %d is NaN", i, f)
			}
		}
	}
	if cfg.Iterations <= 0 || cfg.MaxLeaves < 2 || cfg.MaxLeaves > maxLeaves {
		return nil, nil, errors.New("mart: invalid config")
	}
	if cfg.MinLeafSize < 1 {
		cfg.MinLeafSize = 1
	}
	if cfg.SubsampleFrac <= 0 || cfg.SubsampleFrac > 1 {
		cfg.SubsampleFrac = 1
	}

	pool := par.NewPool(cfg.Workers)
	defer pool.Close()

	b := newBinner(x, nFeatures, pool)
	binned := b.binMatrix(x, pool)

	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)

	m := &Model{Base: mean, Rate: cfg.LearningRate}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = mean
	}
	resid := make([]float64, n)
	rng := xrand.New(cfg.Seed)
	sampleSize := int(cfg.SubsampleFrac * float64(n))
	if sampleSize < 1 {
		sampleSize = 1
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sc := newTrainScratch(n, cfg.MaxLeaves, len(b.feat))

	for it := 0; it < cfg.Iterations; it++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		rows := perm
		if sampleSize < n {
			rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			rows = perm[:sampleSize]
		}
		t := growTree(binned, resid, rows, b, cfg.MaxLeaves, cfg.MinLeafSize, pool, sc)
		if len(t.nodes) <= 1 {
			// Residuals are flat (or leaf constraints block splits):
			// absorb the remaining mean and stop early. The base moved
			// under the trees already added, so the fitted values are
			// re-derived in Predict's order.
			m.Base += t.nodes[0].Value * cfg.LearningRate
			for i := range pred {
				pred[i] = m.Predict(x[i])
			}
			break
		}
		// Quantize to the compact encoding's float32 precision right away
		// so a persisted model routes and predicts identically to the
		// in-memory one (§7.3 stores thresholds and values as 4-byte
		// floats).
		for i := range t.nodes {
			nd := &t.nodes[i]
			nd.Value = float64(float32(clampFinite(nd.Value)))
			if nd.Feature >= 0 {
				nd.Threshold = float64(roundUp32(nd.Threshold))
			}
		}
		m.Trees = append(m.Trees, t)
		// Fold the new tree into the running predictions, row chunks in
		// parallel: each row owns its slot, so the update is exact at any
		// worker count.
		pool.ForChunks(n, rowParMin, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				pred[i] += cfg.LearningRate * t.Predict(x[i])
			}
		})
	}
	return m, pred, nil
}

// Predict returns the ensemble prediction for a feature vector.
func (m *Model) Predict(x []float64) float64 {
	y := m.Base
	for i := range m.Trees {
		y += m.Rate * m.Trees[i].Predict(x)
	}
	return y
}

// NumTrees returns the number of boosted trees.
func (m *Model) NumTrees() int { return len(m.Trees) }
