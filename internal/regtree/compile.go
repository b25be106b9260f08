package regtree

// Compiled is the batch-serving layout of a trained model: every
// stage's piecewise-linear segments flattened into one contiguous slab,
// visited stage-outer / sample-inner so a stage's few segments stay in
// cache while an entire batch evaluates it. Predictions are
// bit-identical to Model.Predict: the segment scan and the per-sample
// accumulation order (base, then each stage's shrunken contribution, in
// stage order) are exactly the same float operations.
type Compiled struct {
	base   float64
	rate   float64
	stages []cstage
	segs   []cseg // all stages' segments, stage by stage
}

// cstage is one flattened stage: the transformed feature plus its
// segment range [off, off+n) within Compiled.segs.
type cstage struct {
	feature int32
	off, n  int32
}

// cseg is one linear piece: y = a + b·x for x ≤ hi (edges are ±Inf,
// matching the source segment bounds).
type cseg struct {
	hi, a, b float64
}

// Compile flattens the model into the contiguous serving layout.
func Compile(m *Model) *Compiled {
	c := &Compiled{base: m.Base, rate: m.Rate, stages: make([]cstage, 0, len(m.Stages))}
	total := 0
	for i := range m.Stages {
		total += len(m.Stages[i].Segments)
	}
	c.segs = make([]cseg, 0, total)
	for i := range m.Stages {
		st := &m.Stages[i]
		c.stages = append(c.stages, cstage{
			feature: int32(st.Feature),
			off:     int32(len(c.segs)),
			n:       int32(len(st.Segments)),
		})
		for _, s := range st.Segments {
			c.segs = append(c.segs, cseg{hi: s.Hi, a: s.A, b: s.B})
		}
	}
	return c
}

// evalStage mirrors stage.eval on the flattened segments.
func (c *Compiled) evalStage(st *cstage, v float64) float64 {
	segs := c.segs[st.off : st.off+st.n]
	for i := range segs {
		if v <= segs[i].hi {
			return segs[i].a + segs[i].b*v
		}
	}
	last := segs[len(segs)-1]
	return last.a + last.b*v
}

// Predict evaluates one feature vector, bit-identical to Model.Predict
// on the source model.
func (c *Compiled) Predict(x []float64) float64 {
	y := c.base
	for i := range c.stages {
		st := &c.stages[i]
		y += c.rate * c.evalStage(st, x[st.feature])
	}
	return y
}

// PredictBatch evaluates every row of xs into out (parallel slices,
// len(out) must equal len(xs)), stage-outer for cache locality and
// bit-identical to calling Predict row by row.
func (c *Compiled) PredictBatch(xs [][]float64, out []float64) {
	for i := range out {
		out[i] = c.base
	}
	for i := range c.stages {
		st := &c.stages[i]
		for j, x := range xs {
			out[j] += c.rate * c.evalStage(st, x[st.feature])
		}
	}
}
