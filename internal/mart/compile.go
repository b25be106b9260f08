package mart

import (
	"math"
	"math/bits"
)

// Compiled is the serving layout of a trained ensemble, scored without
// descending a tree (QuickScorer, Lucchese et al., SIGIR 2015). The
// leaves of every tree are numbered left to right; every inner node
// becomes a record {threshold key, tree, mask} whose mask clears the
// leaves of the node's left subtree; and the records of the whole
// ensemble are grouped by split feature and sorted by key within a
// feature. A row starts one all-ones uint32 per tree, and for
// each feature ANDs in the masks of the run's records while its own key
// exceeds theirs — exactly the nodes where the pointer walk's
// "x <= threshold" is false. The lowest bit left in a tree's word is the
// leaf the walk would have reached.
//
// A row is routed alone — the inner loop is a sequential scan with one
// mispredicted exit per feature — but PredictRows sums rows four at a
// time: it routes a block of four, then walks the trees once, adding
// each tree's four leaves into four independent accumulators, so the
// leaf loads and the dependent float adds of four rows overlap. The
// service splits a request's cache misses by resource, operator kind
// and selected candidate before anything is scored, so groups are
// small by count (half hold eight rows or fewer), but the walk's cost
// is per row, and the rows sit in the large groups: under the
// benchmark's batch_cold workload 89 % of scored rows are in groups of
// nine or more, half in groups of 33–64, and 91 % go through a
// four-row block.
//
// Predictions are bit-identical to Model.Predict: the integer key
// comparison decides like the float comparison (a NaN feature exceeds
// every threshold, matching IEEE "x <= t is false"), and each row's sum
// is base, then rate·leaf tree by tree — the same float operations in
// the same order, whichever accumulator holds it. The layout is
// immutable once built; its four arrays are also what the slab stores,
// byte for byte (see slab.go).
type Compiled struct {
	base, rate float64
	// featOff[f]:featOff[f+1] is feature f's run in nodes, keys
	// ascending; len = features read + 1.
	featOff []uint32
	// leafOff[t]:leafOff[t+1] is tree t's leaves in leaf, left to right;
	// len = trees + 1.
	leafOff []uint32
	nodes   []node
	leaf    []float64
}

// node is one inner tree node: AND mask into tree's word when the row's
// key for the run's feature exceeds key. Every mask keeps its tree's
// last leaf (no left subtree holds it) and no bit beyond it.
type node struct {
	key  uint64
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
	c.nodes = make([]node, inner)
	c.leaf = make([]float64, c.leafOff[len(m.Trees)])

	next := perFeat // next[f] = where feature f's next record goes
	copy(next, c.featOff)
	for ti := range m.Trees {
		lo, hi := c.leafOff[ti], c.leafOff[ti+1]
		c.placeTree(&m.Trees[ti], 0, 0, uint32(ti), ^uint32(0)>>(maxLeaves-(hi-lo)), c.leaf[lo:hi], next)
	}
	tmp := make([]node, inner)
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
func sortByKey(run, tmp []node) {
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
	c.nodes[next[n.Feature]] = node{key: floatKey(thr), tree: tree, mask: all &^ left}
	next[n.Feature]++
	return c.placeTree(t, n.Right, mid, tree, all, leaf, next)
}

// NumTrees returns the number of compiled trees.
func (c *Compiled) NumTrees() int { return len(c.leafOff) - 1 }

// InputsNeeded returns how many features a row must have for scoring to
// stay in bounds: the highest feature any node reads plus one, 0 for a
// model with no inner nodes. Loaders validate this against the metadata
// that sizes prediction rows.
func (c *Compiled) InputsNeeded() int { return len(c.featOff) - 1 }

// route leaves in v[t] the leaves of tree t that row x can still reach;
// the lowest set bit is the one it does reach. len(v) must be NumTrees.
func (c *Compiled) route(x []float64, v []uint32) {
	for w := v; len(w) > 0; w = w[copy(w, allOnes[:]):] {
	}
	lo := c.featOff[0]
	for f, hi := range c.featOff[1:] {
		k := floatKey(x[f])
		for _, n := range c.nodes[lo:hi] {
			if k <= n.key {
				break
			}
			v[n.tree] &= n.mask
		}
		lo = hi
	}
}

// reached is the value of the leaf tree t's routed word w selects.
func (c *Compiled) reached(t int, w uint32) float64 {
	return c.leaf[c.leafOff[t]+uint32(bits.TrailingZeros32(w))]
}

// score routes x and sums base, then rate·leaf tree by tree.
func (c *Compiled) score(x []float64, v []uint32) float64 {
	c.route(x, v)
	y := c.base
	for t, w := range v {
		y += c.rate * c.reached(t, w)
	}
	return y
}

// treeWords is the per-call scratch Predict and PredictMargins route
// through: on the stack up to the paper's M = 1K trees.
type treeWords [1024]uint32

// allOnes is what route resets a row's tree words from, a treeWords at
// a time.
var allOnes = func() (w treeWords) {
	for t := range w {
		w[t] = ^uint32(0)
	}
	return w
}()

func (w *treeWords) forTrees(n int) []uint32 {
	if n > len(w) {
		return make([]uint32, n)
	}
	return w[:n]
}

// Predict evaluates one feature vector, bit-identical to Model.Predict
// on the source model.
func (c *Compiled) Predict(x []float64) float64 {
	var words treeWords
	return c.score(x, words.forTrees(c.NumTrees()))
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
func (c *Compiled) PredictMargins(x []float64, dst []float64) ([]float64, float64) {
	var words treeWords
	v := words.forTrees(c.NumTrees())
	c.route(x, v)
	y := c.base
	for t, w := range v {
		y += c.rate * c.reached(t, w)
		dst = append(dst, y)
	}
	return dst, y
}

// Scratch is the tree words PredictRows routes through, four rows'
// worth, grown to the largest ensemble it has scored. route resets
// every word before reading it, so a Scratch kept across calls is
// neither allocated nor cleared again, where a stack array of four
// treeWords would be zeroed, 16 KB, on every call. The zero value is
// ready to use; a Scratch serves one call at a time.
type Scratch struct{ words []uint32 }

// PredictRows evaluates rows laid back to back into out: row j is
// flat[j*stride:(j+1)*stride], len(flat) must be len(out)*stride, and
// every row must have at least InputsNeeded features. Rows are routed
// four at a time and their leaves summed tree-outer into four
// accumulators, each base, then rate·leaf tree by tree — Predict's
// float operations in Predict's order, so every result is bit-identical
// to Predict on its row. A tail of one to three rows is scored alone.
func (c *Compiled) PredictRows(flat []float64, stride int, out []float64, s *Scratch) {
	n := c.NumTrees()
	if len(s.words) < 4*n {
		s.words = make([]uint32, 4*n)
	}
	v0, v1, v2, v3 := s.words[:n], s.words[n:2*n], s.words[2*n:3*n], s.words[3*n:4*n]
	j := 0
	for ; j+4 <= len(out); j += 4 {
		rows := flat[j*stride : (j+4)*stride]
		c.route(rows[:stride], v0)
		c.route(rows[stride:2*stride], v1)
		c.route(rows[2*stride:3*stride], v2)
		c.route(rows[3*stride:], v3)
		y0, y1, y2, y3 := c.base, c.base, c.base, c.base
		for t, w0 := range v0 {
			y0 += c.rate * c.reached(t, w0)
			y1 += c.rate * c.reached(t, v1[t])
			y2 += c.rate * c.reached(t, v2[t])
			y3 += c.rate * c.reached(t, v3[t])
		}
		out[j], out[j+1], out[j+2], out[j+3] = y0, y1, y2, y3
	}
	for ; j < len(out); j++ {
		out[j] = c.score(flat[j*stride:(j+1)*stride], v0)
	}
}
