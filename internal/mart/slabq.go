package mart

import "math"

// CompiledQ is the quantized sibling of Compiled: the same layout and
// the same scoring loop at float32 keys (12-byte records) and float32
// leaves. Training already quantizes leaf values to float32 precision
// and rounds thresholds up to the nearest float32 (see growTree), so
// the stored values are exact, and feature values are narrowed toward
// +Inf (see featureKey32), which preserves every "x <= t" decision
// against a float32-exact threshold. For models trained here quantized
// scoring therefore reproduces exact scoring; the layout is still
// treated as approximate — publish gates it on probe predictions staying
// within tolerance of the exact ones (reject-if-worse), and serving only
// uses it when explicitly opted in.
type CompiledQ struct{ ensemble[uint32, float32] }

// floatKey32 is floatKey for float32: order-preserving sign-fold with
// NaN mapped to the maximum key so NaN features route right, matching
// the float64 keys and IEEE "x <= t is false".
func floatKey32(f float32) uint32 {
	b := math.Float32bits(f)
	key := b ^ (uint32(int32(b)>>31) | 0x80000000)
	if b&0x7FFFFFFF > 0x7F800000 { // NaN
		key = ^uint32(0)
	}
	return key
}

// keyToFloat recovers the float64 threshold from its key (inverse of
// floatKey; the NaN fold is not invertible but thresholds are never
// NaN).
func keyToFloat(key uint64) float64 {
	b := key
	if b&0x8000000000000000 != 0 {
		b ^= 0x8000000000000000
	} else {
		b = ^b
	}
	return math.Float64frombits(b)
}

// featureKey32 is the row-side key of the quantized layout: x narrowed
// toward +Inf, then keyed. With a float32-representable threshold t
// this makes "x32 <= t" agree with the exact "x <= t" for every float64
// x — if x ≤ t the round-up lands at or below t, and if x > t it stays
// above — whereas round-to-nearest would misroute any x within half an
// ulp above a threshold. Trained thresholds are always float32-exact
// (see growTree), so quantized routing matches exact routing outright;
// the narrowing is its only potential divergence and the encode-time
// gate bounds it for any other model source.
func featureKey32(x float64) uint32 { return floatKey32(roundUp32(x)) }

// Quantize derives the float32 layout from the exact one. Thresholds
// are rounded up to the nearest float32 so "x <= t" keeps its meaning
// for every float32-representable x (trained thresholds are already
// exact float32 values, making the rounding a no-op in practice);
// out-of-range magnitudes saturate to ±Inf, which preserves ordering
// against every finite feature value. Rounding up is monotone, so each
// feature's run stays sorted.
func (c *Compiled) Quantize() *CompiledQ {
	q := &CompiledQ{}
	q.base, q.rate = c.base, c.rate
	q.featOff, q.leafOff = c.featOff, c.leafOff
	q.nodes = make([]node[uint32], len(c.nodes))
	for i, n := range c.nodes {
		q.nodes[i] = node[uint32]{key: floatKey32(roundUp32(keyToFloat(n.key))), tree: n.tree, mask: n.mask}
	}
	q.leaf = make([]float32, len(c.leaf))
	for i, v := range c.leaf {
		q.leaf[i] = float32(v)
	}
	return q
}

// CompiledQFromSlab is CompiledFromSlab for the quantized layout
// (magic "MCQ2": 12-byte records, float32 leaves, 4-byte aligned).
func CompiledQFromSlab(b []byte) (*CompiledQ, error) {
	q := &CompiledQ{}
	if err := q.fromSlab(b); err != nil {
		return nil, err
	}
	return q, nil
}
