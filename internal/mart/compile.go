package mart

import (
	"math"
	"math/bits"
)

// Compiled is the serving layout of a trained ensemble, scored one row
// at a time without descending a tree (QuickScorer, Lucchese et al.,
// SIGIR 2015). The leaves of every tree are numbered left to right;
// every inner node becomes a record {threshold key, tree, mask} whose
// mask clears the leaves of the node's left subtree; and the records of
// the whole ensemble are grouped by split feature and sorted by key
// within a feature. A row starts one all-ones uint32 per tree, and for
// each feature ANDs in the masks of the run's records while its own key
// exceeds theirs — exactly the nodes where the pointer walk's
// "x <= threshold" is false. The lowest bit left in a tree's word is the
// leaf the walk would have reached.
//
// Why sample-at-a-time and not tree-outer over a batch: the service
// splits a request's cache misses by resource, operator kind and
// selected candidate before anything is scored, so half of all groups
// hold eight rows or fewer and one in seven holds a single row. A
// kernel that keeps several rows in flight per tree has nothing to
// overlap there; this one costs the same per row in a group of one as
// in a group of 256, and its inner loop is a sequential scan with one
// mispredicted exit per feature.
//
// Predictions are bit-identical to Model.Predict: the integer key
// comparison decides like the float comparison (a NaN feature exceeds
// every threshold, matching IEEE "x <= t is false"), and a row's sum is
// base, then rate·leaf tree by tree — the same float operations in the
// same order. The layout is immutable once built.
type Compiled struct{ ensemble[uint64, float64] }

// ensemble is the layout itself, shared by the exact form (uint64 keys,
// float64 leaves) and the quantized one (uint32, float32; see slabq.go).
// These four arrays are also what the slab stores, byte for byte.
type ensemble[K uint32 | uint64, V float32 | float64] struct {
	base, rate float64
	// featOff[f]:featOff[f+1] is feature f's run in nodes, keys
	// ascending; len = features read + 1.
	featOff []uint32
	// leafOff[t]:leafOff[t+1] is tree t's leaves in leaf, left to right;
	// len = trees + 1.
	leafOff []uint32
	nodes   []node[K]
	leaf    []V
}

// node is one inner tree node: AND mask into tree's word when the row's
// key for the run's feature exceeds key. Every mask keeps its tree's
// last leaf (no left subtree holds it) and no bit beyond it.
type node[K uint32 | uint64] struct {
	key  K
	tree uint32
	mask uint32
}

// maxLeaves is the width of a tree's word.
const maxLeaves = 32

// floatKey maps a float64 to an integer key such that for all non-NaN
// x, v: x > v ⟺ floatKey(x) > floatKey(v), given v is not -0 (the usual
// sign-fold: negative floats flip all bits, positives set the sign
// bit). NaN maps to the maximum key, which exceeds every threshold key —
// so a NaN feature routes right, exactly like the float comparison
// "x <= t" being false in the pointer walk.
func floatKey(f float64) uint64 {
	b := math.Float64bits(f)
	key := b ^ (uint64(int64(b)>>63) | 0x8000000000000000)
	if b&0x7FFFFFFFFFFFFFFF > 0x7FF0000000000000 { // NaN
		key = ^uint64(0)
	}
	return key
}

// wide reports whether K is the exact layout's 64-bit key; it folds to
// a constant in each instantiation.
func wide[K uint32 | uint64]() bool { return uint64(^K(0)) > math.MaxUint32 }

// keyOf is the row-side key at the layout's width: floatKey, or for the
// quantized layout the float32 key of x narrowed toward +Inf.
func keyOf[K uint32 | uint64](x float64) K {
	if wide[K]() {
		return K(floatKey(x))
	}
	return K(featureKey32(x))
}

// Compile builds the serving layout: one counting pass buckets the
// inner nodes by feature, one in-order pass per tree numbers its leaves
// and drops each record into its bucket, and each bucket is sorted by
// key. Trees come from Train or DecodeBinary, both of which bound a tree
// at 32 leaves.
func Compile(m *Model) *Compiled {
	c := &Compiled{}
	c.base, c.rate = m.Base, m.Rate
	c.leafOff = make([]uint32, 1, len(m.Trees)+1)
	var perFeat []uint32
	inner := 0
	for ti := range m.Trees {
		leaves := uint32(0)
		for i := range m.Trees[ti].nodes {
			f := int(m.Trees[ti].nodes[i].Feature)
			if f < 0 {
				leaves++
				continue
			}
			if f >= len(perFeat) {
				perFeat = append(perFeat, make([]uint32, f+1-len(perFeat))...)
			}
			perFeat[f]++
			inner++
		}
		if leaves > maxLeaves {
			panic("mart: Compile: tree has more than 32 leaves")
		}
		c.leafOff = append(c.leafOff, c.leafOff[ti]+leaves)
	}
	c.featOff = make([]uint32, len(perFeat)+1)
	for f, n := range perFeat {
		c.featOff[f+1] = c.featOff[f] + n
	}
	c.nodes = make([]node[uint64], inner)
	c.leaf = make([]float64, c.leafOff[len(m.Trees)])

	next := perFeat // next[f] = where feature f's next record goes
	copy(next, c.featOff)
	for ti := range m.Trees {
		lo, hi := c.leafOff[ti], c.leafOff[ti+1]
		c.placeTree(&m.Trees[ti], 0, 0, uint32(ti), ^uint32(0)>>(maxLeaves-(hi-lo)), c.leaf[lo:hi], next)
	}
	tmp := make([]node[uint64], inner)
	for f := range perFeat {
		lo, hi := c.featOff[f], c.featOff[f+1]
		sortByKey(c.nodes[lo:hi], tmp[lo:hi])
	}
	return c
}

// sortByKey sorts one feature's run by key, ties left in tree order: a
// byte-wise radix sort through tmp (same length), which at a few
// hundred records per run is several times cheaper than a comparison
// sort — a set-up compiles some 80 models. Bytes every key shares, most
// of them for thresholds of one feature, cost a count and no move.
func sortByKey(run, tmp []node[uint64]) {
	if len(run) < 2 {
		return
	}
	src, dst := run, tmp
	for shift := 0; shift < 64; shift += 8 {
		var start [257]int // start[d] = records with a smaller byte, once summed
		for i := range src {
			start[int(byte(src[i].key>>shift))+1]++
		}
		if start[int(byte(src[0].key>>shift))+1] == len(src) {
			continue
		}
		for d := 1; d < 256; d++ {
			start[d+1] += start[d]
		}
		for _, n := range src {
			d := byte(n.key >> shift)
			dst[start[d]] = n
			start[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &run[0] {
		copy(run, src)
	}
}

// placeTree visits the subtree at node i in order, numbering leaves from
// first, and returns the number after its last leaf. all has one bit per
// leaf of the tree.
func (c *Compiled) placeTree(t *Tree, i int32, first, tree, all uint32, leaf []float64, next []uint32) uint32 {
	n := &t.nodes[i]
	if n.Feature < 0 {
		leaf[first] = n.Value
		return first + 1
	}
	mid := c.placeTree(t, n.Left, first, tree, all, leaf, next)
	thr := n.Threshold
	if thr == 0 {
		thr = 0 // x <= -0 ⟺ x <= +0, and only +0 keys in float order
	}
	left := uint32(1)<<mid - uint32(1)<<first
	c.nodes[next[n.Feature]] = node[uint64]{key: floatKey(thr), tree: tree, mask: all &^ left}
	next[n.Feature]++
	return c.placeTree(t, n.Right, mid, tree, all, leaf, next)
}

// NumTrees returns the number of compiled trees.
func (e *ensemble[K, V]) NumTrees() int { return len(e.leafOff) - 1 }

// InputsNeeded returns how many features a row must have for scoring to
// stay in bounds: the highest feature any node reads plus one, 0 for a
// model with no inner nodes. Loaders validate this against the metadata
// that sizes prediction rows.
func (e *ensemble[K, V]) InputsNeeded() int { return len(e.featOff) - 1 }

// route leaves in v[t] the leaves of tree t that row x can still reach;
// the lowest set bit is the one it does reach. len(v) must be NumTrees.
func (e *ensemble[K, V]) route(x []float64, v []uint32) {
	for t := range v {
		v[t] = ^uint32(0)
	}
	lo := e.featOff[0]
	for f, hi := range e.featOff[1:] {
		k := keyOf[K](x[f])
		for _, n := range e.nodes[lo:hi] {
			if k <= n.key {
				break
			}
			v[n.tree] &= n.mask
		}
		lo = hi
	}
}

// reached is the value of the leaf tree t's routed word w selects.
func (e *ensemble[K, V]) reached(t int, w uint32) float64 {
	return float64(e.leaf[e.leafOff[t]+uint32(bits.TrailingZeros32(w))])
}

// score routes x and sums base, then rate·leaf tree by tree.
func (e *ensemble[K, V]) score(x []float64, v []uint32) float64 {
	e.route(x, v)
	y := e.base
	for t, w := range v {
		y += e.rate * e.reached(t, w)
	}
	return y
}

// treeWords is the per-call scratch score routes through: on the stack
// up to the paper's M = 1K trees.
type treeWords [1024]uint32

func (w *treeWords) forTrees(n int) []uint32 {
	if n > len(w) {
		return make([]uint32, n)
	}
	return w[:n]
}

// Predict evaluates one feature vector, bit-identical to Model.Predict
// on the source model.
func (e *ensemble[K, V]) Predict(x []float64) float64 {
	var words treeWords
	return e.score(x, words.forTrees(e.NumTrees()))
}

// PredictMargins evaluates one feature vector like Predict while
// recording the cumulative ensemble output after each boosting stage:
// margins[t] is the prediction of the first t+1 trees (base included),
// so margins[len-1] is the final prediction. Routing and accumulation
// are exactly Predict's, so the final margin is bit-identical to
// Predict — the per-stage trajectory is the explain surface, not an
// approximation of it. Margins are appended to dst (pass dst[:0] to
// reuse a buffer); the final prediction is also returned directly so a
// model with zero trees still reports its base.
func (e *ensemble[K, V]) PredictMargins(x []float64, dst []float64) ([]float64, float64) {
	var words treeWords
	v := words.forTrees(e.NumTrees())
	e.route(x, v)
	y := e.base
	for t, w := range v {
		y += e.rate * e.reached(t, w)
		dst = append(dst, y)
	}
	return dst, y
}

// PredictBatch evaluates every row of xs into out (parallel slices;
// every row must have at least InputsNeeded features). Each result is
// bit-identical to Predict on that row.
func (e *ensemble[K, V]) PredictBatch(xs [][]float64, out []float64) {
	var words treeWords
	v := words.forTrees(e.NumTrees())
	for j, x := range xs {
		out[j] = e.score(x, v)
	}
}

// PredictRows is PredictBatch over rows laid back to back: row j is
// flat[j*stride:(j+1)*stride], and len(flat) must be len(out)*stride.
func (e *ensemble[K, V]) PredictRows(flat []float64, stride int, out []float64) {
	var words treeWords
	v := words.forTrees(e.NumTrees())
	for j := range out {
		out[j] = e.score(flat[j*stride:(j+1)*stride], v)
	}
}
