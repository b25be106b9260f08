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
// in a few megabytes, matching the paper's memory budget. The same
// envelope, without the blobs, is a slab's META section (slab.go).

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
	// Mart is the §7.3 blob. A slab's META section leaves it out and
	// carries Slab instead: [martOff, martLen, blobOff, blobLen], the
	// candidate's ranges in the MARTS and BLOBS sections.
	Mart []byte   `json:"mart,omitempty"`
	Slab []uint64 `json:"slab,omitempty"`
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
	out, err := e.envelope(func(c *CombinedModel, cj *combinedJSON) { cj.Mart = c.blob })
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(out)
}

// envelope builds the metadata both model files carry: Save's JSON and
// a slab's META section. ensemble fills in where each candidate's
// ensemble lives — its §7.3 blob inline, or references into the slab.
func (e *Estimator) envelope(ensemble func(*CombinedModel, *combinedJSON)) (*estimatorJSON, error) {
	out := &estimatorJSON{
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
			cj := encodeCombined(c)
			ensemble(c, &cj)
			oj.Candidates = append(oj.Candidates, cj)
		}
		if oj.DefaultIdx < 0 {
			return nil, fmt.Errorf("core: encode %s: default model not among candidates", kind)
		}
		out.Ops = append(out.Ops, oj)
	}
	return out, nil
}

func encodeCombined(c *CombinedModel) combinedJSON {
	cj := combinedJSON{
		Low:      c.Low,
		High:     c.High,
		YLow:     c.YLow,
		YHigh:    c.YHigh,
		TrainErr: c.TrainErr,
		NoNorm:   c.noNorm,
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
	return cj
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
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	e, err := in.estimator(func(cj *combinedJSON) (*mart.Compiled, []byte, error) {
		m, err := mart.DecodeBinary(cj.Mart)
		if err != nil {
			return nil, nil, err
		}
		return mart.Compile(m), cj.Mart, nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	return e, nil
}

// estimator builds the estimator an envelope describes. Both loaders
// run it: ensemble supplies each candidate's serving layout and §7.3
// blob, decoded and compiled from the inline blob by LoadEstimator,
// aliased out of the MARTS and BLOBS sections by LoadEstimatorSlab.
func (in *estimatorJSON) estimator(ensemble func(*combinedJSON) (*mart.Compiled, []byte, error)) (*Estimator, error) {
	if in.Version != persistVersion {
		return nil, fmt.Errorf("unsupported version %d", in.Version)
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
		for i := range oj.Candidates {
			c, err := decodeCombined(kind, e.Resource, &oj.Candidates[i], ensemble)
			if err != nil {
				return nil, fmt.Errorf("%s candidate %d: %w", kind, i, err)
			}
			om.Candidates = append(om.Candidates, c)
		}
		if oj.DefaultIdx < 0 || oj.DefaultIdx >= len(om.Candidates) {
			return nil, fmt.Errorf("%s: bad default index %d", kind, oj.DefaultIdx)
		}
		om.Default = om.Candidates[oj.DefaultIdx]
		e.Ops[kind] = om
	}
	return e, nil
}

func decodeCombined(op plan.OpKind, r plan.ResourceKind, cj *combinedJSON,
	ensemble func(*combinedJSON) (*mart.Compiled, []byte, error)) (*CombinedModel, error) {

	c := &CombinedModel{
		Op:        op,
		Resource:  r,
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
	var err error
	if c.compiled, c.blob, err = ensemble(cj); err != nil {
		return nil, err
	}
	if err := validateCandidate(c); err != nil {
		return nil, err
	}
	c.scaleFeats = sortedScaleFeatures(c)
	return c, nil
}

// validateCandidate checks the invariants prediction relies on but
// decode alone cannot guarantee on adversarial input: every feature ID
// is a real features.ID (Vector.Get indexes a fixed-size array), and
// scoring never reads past the transformed row the metadata sizes.
// Both loaders run it on every candidate they decode. A candidate
// passing here can serve any vector without panicking, whatever the
// file contained.
func validateCandidate(c *CombinedModel) error {
	validID := func(id features.ID) bool { return id >= 0 && id < features.NumFeatures }
	for _, s := range c.Scales {
		if !validID(s.F1) || !validID(s.F2) {
			return fmt.Errorf("scale feature out of range")
		}
	}
	for i, id := range c.Inputs {
		if !validID(id) {
			return fmt.Errorf("input %d feature %d out of range", i, id)
		}
		if nb := c.normalizeBy[i]; nb != -1 && !validID(nb) {
			return fmt.Errorf("input %d normalize-by %d out of range", i, nb)
		}
	}
	for f := range c.ScaleLow {
		if !validID(f) {
			return fmt.Errorf("scale-range feature %d out of range", f)
		}
	}
	if need := c.compiled.InputsNeeded(); need > len(c.Inputs) {
		return fmt.Errorf("model reads %d inputs, metadata has %d", need, len(c.Inputs))
	}
	return nil
}
