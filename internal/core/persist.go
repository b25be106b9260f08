package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/features"
	"repro/internal/mart"
	"repro/internal/plan"
)

// The on-disk estimator format is a JSON envelope holding per-model
// metadata with the MART ensembles embedded in their compact binary
// encoding (§7.3) as base64. The whole model set for both resources fits
// in a few megabytes, matching the paper's memory budget.

type scaleJSON struct {
	Kind int `json:"kind"`
	F1   int `json:"f1"`
	F2   int `json:"f2"`
}

type combinedJSON struct {
	Scales      []scaleJSON `json:"scales,omitempty"`
	Inputs      []int       `json:"inputs"`
	NormalizeBy []int       `json:"normalize_by"`
	Low         []float64   `json:"low"`
	High        []float64   `json:"high"`
	ScaleFeat   []int       `json:"scale_feat,omitempty"`
	ScaleLow    []float64   `json:"scale_low,omitempty"`
	ScaleHigh   []float64   `json:"scale_high,omitempty"`
	YLow        float64     `json:"y_low"`
	YHigh       float64     `json:"y_high"`
	TrainErr    float64     `json:"train_err"`
	NoNorm      bool        `json:"no_norm,omitempty"`
	Mart        []byte      `json:"mart"`
}

type opJSON struct {
	Op         int            `json:"op"`
	NSamples   int            `json:"n_samples"`
	DefaultIdx int            `json:"default"`
	Candidates []combinedJSON `json:"candidates"`
}

type baselineJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
}

type estimatorJSON struct {
	Version      int     `json:"version"`
	Resource     int     `json:"resource"`
	Mode         int     `json:"mode"`
	FallbackMean float64 `json:"fallback_mean"`
	// Baseline is optional so model files predating the feedback
	// subsystem keep loading (and old readers ignore the extra field).
	Baseline *baselineJSON `json:"baseline,omitempty"`
	Ops      []opJSON      `json:"ops"`
}

const persistVersion = 1

// Save serializes the estimator.
func (e *Estimator) Save(w io.Writer) error {
	out := estimatorJSON{
		Version:      persistVersion,
		Resource:     int(e.Resource),
		Mode:         int(e.Mode),
		FallbackMean: e.fallbackMean,
	}
	if b := e.Baseline; b != nil {
		out.Baseline = &baselineJSON{N: b.N, Mean: b.Mean, P50: b.P50, P90: b.P90}
	}
	// Deterministic op order.
	for _, kind := range plan.Kinds() {
		om, ok := e.Ops[kind]
		if !ok {
			continue
		}
		oj := opJSON{Op: int(kind), NSamples: om.NSamples, DefaultIdx: -1}
		for i, c := range om.Candidates {
			if c == om.Default {
				oj.DefaultIdx = i
			}
			cj, err := encodeCombined(c)
			if err != nil {
				return fmt.Errorf("core: save %s: %w", kind, err)
			}
			oj.Candidates = append(oj.Candidates, cj)
		}
		if oj.DefaultIdx < 0 {
			return fmt.Errorf("core: save %s: default model not among candidates", kind)
		}
		out.Ops = append(out.Ops, oj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

func encodeCombined(c *CombinedModel) (combinedJSON, error) {
	// A slab-restored model never materializes Mart; its retained
	// compact binary re-emits byte-identical model files.
	blob := c.martBlob
	if c.Mart != nil {
		var err error
		blob, err = c.Mart.EncodeBinary()
		if err != nil {
			return combinedJSON{}, err
		}
	} else if blob == nil {
		return combinedJSON{}, fmt.Errorf("model has neither Mart nor a retained binary blob")
	}
	cj := combinedJSON{
		Low:      c.Low,
		High:     c.High,
		YLow:     c.YLow,
		YHigh:    c.YHigh,
		TrainErr: c.TrainErr,
		NoNorm:   c.noNorm,
		Mart:     blob,
	}
	for _, s := range c.Scales {
		cj.Scales = append(cj.Scales, scaleJSON{Kind: int(s.Kind), F1: int(s.F1), F2: int(s.F2)})
	}
	for _, id := range c.Inputs {
		cj.Inputs = append(cj.Inputs, int(id))
	}
	for _, id := range c.normalizeBy {
		cj.NormalizeBy = append(cj.NormalizeBy, int(id))
	}
	for _, f := range sortedScaleFeatures(c) {
		cj.ScaleFeat = append(cj.ScaleFeat, int(f))
		cj.ScaleLow = append(cj.ScaleLow, c.ScaleLow[f])
		cj.ScaleHigh = append(cj.ScaleHigh, c.ScaleHigh[f])
	}
	return cj, nil
}

func sortedScaleFeatures(c *CombinedModel) []features.ID {
	var out []features.ID
	for f := features.ID(0); f < features.NumFeatures; f++ {
		if _, ok := c.ScaleLow[f]; ok {
			out = append(out, f)
		}
	}
	return out
}

// LoadEstimator reads an estimator saved by Save.
func LoadEstimator(r io.Reader) (*Estimator, error) {
	var in estimatorJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if in.Version != persistVersion {
		return nil, fmt.Errorf("core: load: unsupported version %d", in.Version)
	}
	e := &Estimator{
		Resource:     plan.ResourceKind(in.Resource),
		Mode:         features.Mode(in.Mode),
		Ops:          make(map[plan.OpKind]*OperatorModels, len(in.Ops)),
		fallbackMean: in.FallbackMean,
	}
	if b := in.Baseline; b != nil {
		e.Baseline = &ErrorBaseline{N: b.N, Mean: b.Mean, P50: b.P50, P90: b.P90}
	}
	for _, oj := range in.Ops {
		kind := plan.OpKind(oj.Op)
		om := &OperatorModels{Op: kind, Resource: e.Resource, NSamples: oj.NSamples}
		for _, cj := range oj.Candidates {
			c, err := decodeCombined(kind, e.Resource, cj)
			if err != nil {
				return nil, fmt.Errorf("core: load %s: %w", kind, err)
			}
			om.Candidates = append(om.Candidates, c)
		}
		if oj.DefaultIdx < 0 || oj.DefaultIdx >= len(om.Candidates) {
			return nil, fmt.Errorf("core: load %s: bad default index %d", kind, oj.DefaultIdx)
		}
		om.Default = om.Candidates[oj.DefaultIdx]
		e.Ops[kind] = om
	}
	return e, nil
}

func decodeCombined(op plan.OpKind, r plan.ResourceKind, cj combinedJSON) (*CombinedModel, error) {
	m, err := mart.DecodeBinary(cj.Mart)
	if err != nil {
		return nil, err
	}
	c := &CombinedModel{
		Op:        op,
		Resource:  r,
		Mart:      m,
		compiled:  mart.Compile(m),
		Low:       cj.Low,
		High:      cj.High,
		YLow:      cj.YLow,
		YHigh:     cj.YHigh,
		TrainErr:  cj.TrainErr,
		noNorm:    cj.NoNorm,
		ScaleLow:  map[features.ID]float64{},
		ScaleHigh: map[features.ID]float64{},
	}
	for _, s := range cj.Scales {
		c.Scales = append(c.Scales, ScaleFn{Kind: ScaleKind(s.Kind), F1: features.ID(s.F1), F2: features.ID(s.F2)})
	}
	for _, id := range cj.Inputs {
		c.Inputs = append(c.Inputs, features.ID(id))
	}
	for _, id := range cj.NormalizeBy {
		c.normalizeBy = append(c.normalizeBy, features.ID(id))
	}
	if len(c.Inputs) != len(c.normalizeBy) || len(c.Inputs) != len(c.Low) || len(c.Inputs) != len(c.High) {
		return nil, fmt.Errorf("inconsistent input metadata lengths")
	}
	if len(cj.ScaleLow) != len(cj.ScaleFeat) || len(cj.ScaleHigh) != len(cj.ScaleFeat) {
		return nil, fmt.Errorf("inconsistent scale-range metadata lengths")
	}
	for i, f := range cj.ScaleFeat {
		c.ScaleLow[features.ID(f)] = cj.ScaleLow[i]
		c.ScaleHigh[features.ID(f)] = cj.ScaleHigh[i]
	}
	if err := validateCandidate(c); err != nil {
		return nil, err
	}
	c.scaleFeats = sortedScaleFeatures(c)
	return c, nil
}
