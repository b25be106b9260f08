// Package mart implements Multiple Additive Regression-Trees (MART):
// stochastic gradient boosting of small regression trees in the sense of
// Friedman [14] and Wu et al. [21], the paper's base learning method.
//
// Trees are grown leaf-wise with histogram-based split finding (feature
// values are pre-bucketed into ≤ 64 quantile bins), which keeps training
// linear in rows × features per tree. Each boosting iteration fits the
// residual error of the current ensemble on a random subsample, matching
// the paper's setup of M = 1K iterations and ≤ 10 leaves per tree.
//
// Training parallelizes inside each boosting iteration — row binning,
// per-node histogram accumulation (one feature range per worker, merged
// in fixed feature order) and the ensemble-prediction update — while the
// iterations themselves stay sequential, as boosting demands. Every
// parallel region writes to disjoint slots and merges deterministically,
// so the trained model is bit-identical at any worker count.
package mart

import (
	"math"
	"sort"

	"repro/internal/par"
)

// Parallelism thresholds: below these sizes dispatch overhead beats the
// parallel win. Purely performance knobs — training output is
// bit-identical on either side of them.
const (
	histParMin = 4096 // leaf rows × features before split finding fans out
	rowParMin  = 1024 // rows before row-chunk loops (binning, prediction) fan out
)

// treeNode is one node of a regression tree. Leaves have Feature == -1.
type treeNode struct {
	Feature   int32   // split feature, -1 for leaves
	Threshold float64 // go left if x[Feature] <= Threshold
	Left      int32   // child indexes within Tree.nodes
	Right     int32
	Value     float64 // prediction at leaves
}

// Tree is a single regression tree.
type Tree struct {
	nodes []treeNode
}

// Predict returns the tree's regression value for x.
func (t *Tree) Predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.Feature < 0 {
			return n.Value
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// binner maps raw feature values to quantile bin indexes. Bin boundaries
// (upper edges) are computed once from the training matrix, and only for
// the live columns: a feature with fewer than two distinct edges can
// never split, so it never enters the bin matrix.
type binner struct {
	// feat[c] is the feature index behind bin-matrix column c, ascending.
	feat []int32
	// edges[c] holds column c's ascending upper edges; value v falls in
	// the first bin whose edge >= v. 2 <= len(edges[c]) <= maxBins.
	edges [][]float64
}

// maxBins is a power of two: the histogram kernel indexes its fixed-size
// arrays with bin & (maxBins-1), which needs no bounds check.
const maxBins = 64

// quantileEdges computes the distinct quantile-based bin edges of
// feature column f.
func quantileEdges(x [][]float64, f int) []float64 {
	sorted := make([]float64, len(x))
	for i := range x {
		sorted[i] = x[i][f]
	}
	sort.Float64s(sorted)
	var edges []float64
	for k := 1; k <= maxBins; k++ {
		idx := k*len(sorted)/maxBins - 1
		if idx < 0 {
			idx = 0
		}
		v := sorted[idx]
		if len(edges) == 0 || v > edges[len(edges)-1] {
			edges = append(edges, v)
		}
	}
	return edges
}

// newBinner computes the bin edges of each feature column, one feature
// per worker (columns are independent), and keeps the live ones.
func newBinner(x [][]float64, nFeatures int, pool *par.Pool) *binner {
	all := make([][]float64, nFeatures)
	if pool.Workers() > 1 && len(x) >= rowParMin && nFeatures > 1 {
		pool.For(nFeatures, func(_, f int) { all[f] = quantileEdges(x, f) })
	} else {
		for f := range all {
			all[f] = quantileEdges(x, f)
		}
	}
	b := &binner{}
	for f, edges := range all {
		if len(edges) >= 2 {
			b.feat = append(b.feat, int32(f))
			b.edges = append(b.edges, edges)
		}
	}
	return b
}

// binOf returns the bin index of value v in column c.
func (b *binner) binOf(c int, v float64) int {
	e := b.edges[c]
	lo, hi := 0, len(e)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if e[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// binMatrix converts the raw matrix's live columns into bin indexes,
// row chunks in parallel: row i's bins are out[i*nc : (i+1)*nc] for
// nc = len(b.feat).
func (b *binner) binMatrix(x [][]float64, pool *par.Pool) []uint8 {
	nc := len(b.feat)
	out := make([]uint8, len(x)*nc)
	pool.ForChunks(len(x), rowParMin, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := out[i*nc : (i+1)*nc]
			for c, f := range b.feat {
				r[c] = uint8(b.binOf(c, x[i][f]))
			}
		}
	})
	return out
}

// leaf is one growable terminal region during tree construction.
type leaf struct {
	rows     []int // segment of the scratch row arena
	sum      float64
	nodeIdx  int32
	bestGain float64
	bestCol  int // bin-matrix column; -1 when no split is possible
	bestBin  int
}

// splitCand is one column's best split of a leaf: the result slot the
// histogram kernel writes into before the fixed-order merge.
type splitCand struct {
	gain float64
	bin  int
	ok   bool
}

// featHist is one column's residual histogram over a leaf's rows.
type featHist struct {
	sum [maxBins]float64
	cnt [maxBins]int32
}

// trainScratch holds every buffer growTree reuses across boosting
// stages: per-column histograms and split candidates, the row arena the
// leaves partition in place, and the leaf table itself. One allocation
// per Train call instead of several per stage.
type trainScratch struct {
	hist     []featHist  // per column
	cands    []splitCand // per column
	rowArena []int       // the tree's private copy of the sampled rows
	rowTmp   []int       // staging for the right side of a partition
	leaves   []leaf
}

func newTrainScratch(n, maxLeaves, nCols int) *trainScratch {
	return &trainScratch{
		hist:     make([]featHist, nCols),
		cands:    make([]splitCand, nCols),
		rowArena: make([]int, n),
		rowTmp:   make([]int, 0, n),
		leaves:   make([]leaf, 0, maxLeaves),
	}
}

// leafSplits is the histogram kernel, the unit of parallelism in split
// finding: one pass over the leaf's rows fills the histograms of columns
// [clo, chi), then each is scanned for its best split into cands. Every
// (column, bin) slot accumulates in row order and bins are scanned in
// ascending order with ties keeping the lower bin (strict >), so the
// candidates are the same floats for any partition of the columns into
// ranges.
func leafSplits(binned []uint8, resid []float64, rows []int, edges [][]float64,
	clo, chi int, total float64, minLeaf int, hist []featHist, cands []splitCand) {

	nc := len(edges)
	hs := hist[clo:chi]
	for c := range hs {
		nb := len(edges[clo+c])
		clear(hs[c].sum[:nb])
		clear(hs[c].cnt[:nb])
	}
	for _, r := range rows {
		g := resid[r]
		bins := binned[r*nc+clo : r*nc+chi]
		bins = bins[:len(hs)] // same length, stated so bins[c] needs no bounds check
		for c := range hs {
			k := bins[c] & (maxBins - 1)
			hs[c].sum[k] += g
			hs[c].cnt[k]++
		}
	}
	n := len(rows)
	parentScore := total * total / float64(n)
	for c := range hs {
		h := &hs[c]
		var cand splitCand
		var leftSum float64
		leftCnt := 0
		for k, nb := 0, len(edges[clo+c]); k < nb-1; k++ {
			leftSum += h.sum[k]
			leftCnt += int(h.cnt[k])
			rightCnt := n - leftCnt
			if leftCnt < minLeaf || rightCnt < minLeaf {
				continue
			}
			rightSum := total - leftSum
			gain := leftSum*leftSum/float64(leftCnt) +
				rightSum*rightSum/float64(rightCnt) - parentScore
			// Strict > against a zero baseline, so per-column bests then
			// a fixed-order merge pick the lowest column and bin on ties.
			if gain > cand.gain {
				cand = splitCand{gain: gain, bin: k, ok: true}
			}
		}
		cands[clo+c] = cand
	}
}

// growTree fits one regression tree to the residuals of the sampled rows
// using histogram split finding. rows are indexes into binned/resid; the
// caller's slice is copied into the scratch arena and never mutated (the
// subsample permutation must survive untouched for the next iteration's
// shuffle). Splits are found over the binner's columns and stored under
// the feature index behind each.
func growTree(binned []uint8, resid []float64, rows []int, b *binner,
	maxLeaves, minLeaf int, pool *par.Pool, sc *trainScratch) Tree {

	nc := len(b.edges)
	var t Tree
	t.nodes = make([]treeNode, 0, 2*maxLeaves-1)
	mkLeafValue := func(sum float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}

	arena := sc.rowArena[:len(rows)]
	copy(arena, rows)

	var rootSum float64
	for _, r := range arena {
		rootSum += resid[r]
	}
	t.nodes = append(t.nodes, treeNode{Feature: -1, Value: mkLeafValue(rootSum, len(arena))})
	leaves := sc.leaves[:0] // cap maxLeaves: appends never reallocate, &leaves[i] stays valid
	leaves = append(leaves, leaf{rows: arena, sum: rootSum, nodeIdx: 0})

	// findBest computes the best split of a leaf: the kernel over all
	// columns, or over one column range per worker, then candidates
	// merged in ascending column order so ties resolve to the lowest
	// feature, then the lowest bin.
	findBest := func(lf *leaf) {
		lf.bestGain = 0
		lf.bestCol = -1
		n := len(lf.rows)
		if n < 2*minLeaf {
			return
		}
		if pool.Workers() > 1 && n*nc >= histParMin {
			pool.ForChunks(nc, 2, func(_, clo, chi int) {
				leafSplits(binned, resid, lf.rows, b.edges, clo, chi, lf.sum, minLeaf, sc.hist, sc.cands)
			})
		} else {
			leafSplits(binned, resid, lf.rows, b.edges, 0, nc, lf.sum, minLeaf, sc.hist, sc.cands)
		}
		for c := range sc.cands {
			if cand := sc.cands[c]; cand.ok && cand.gain > lf.bestGain {
				lf.bestGain = cand.gain
				lf.bestCol = c
				lf.bestBin = cand.bin
			}
		}
	}

	findBest(&leaves[0])
	for len(leaves) < maxLeaves {
		// Split the leaf with the highest gain.
		bi := -1
		for i := range leaves {
			if leaves[i].bestCol >= 0 && (bi < 0 || leaves[i].bestGain > leaves[bi].bestGain) {
				bi = i
			}
		}
		if bi < 0 {
			break
		}
		c, bin := leaves[bi].bestCol, leaves[bi].bestBin
		thr := b.edges[c][bin]
		// Stable in-place partition of the leaf's arena segment: left
		// rows compact to the front, right rows stage in the scratch
		// buffer and copy back — same contents and order as an
		// append-based split, with zero per-stage allocation.
		rows := leaves[bi].rows
		tmp := sc.rowTmp[:0]
		var lsum, rsum float64
		li := 0
		for _, r := range rows {
			if int(binned[r*nc+c]) <= bin {
				rows[li] = r
				li++
				lsum += resid[r]
			} else {
				tmp = append(tmp, r)
				rsum += resid[r]
			}
		}
		if li == 0 || li == len(rows) {
			leaves[bi].bestCol = -1 // degenerate; stop splitting this leaf
			continue
		}
		copy(rows[li:], tmp)
		// Materialize the split: current node becomes internal.
		liIdx := int32(len(t.nodes))
		t.nodes = append(t.nodes, treeNode{Feature: -1, Value: mkLeafValue(lsum, li)})
		riIdx := int32(len(t.nodes))
		t.nodes = append(t.nodes, treeNode{Feature: -1, Value: mkLeafValue(rsum, len(rows)-li)})
		nd := &t.nodes[leaves[bi].nodeIdx]
		nd.Feature = b.feat[c]
		nd.Threshold = thr
		nd.Left, nd.Right = liIdx, riIdx

		leaves[bi] = leaf{rows: rows[:li], sum: lsum, nodeIdx: liIdx}
		leaves = append(leaves, leaf{rows: rows[li:], sum: rsum, nodeIdx: riIdx})
		if len(leaves) < maxLeaves { // a full tree never reads its children's splits
			findBest(&leaves[bi])
			findBest(&leaves[len(leaves)-1])
		}
	}
	return t
}

// clampFinite protects leaf values against numeric blowups.
func clampFinite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// roundUp32 is the smallest float32 >= f (±Inf beyond float32's range,
// NaN for NaN).
func roundUp32(f float64) float32 {
	f32 := float32(f)
	if float64(f32) < f {
		f32 = math.Nextafter32(f32, float32(math.Inf(1)))
	}
	return f32
}
