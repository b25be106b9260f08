package mart

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/xrand"
)

// The scoring loop is held to the pointer walk it replaced: for any
// forest the decoders and the trainer can produce, and any row, the
// compiled layout must return Model.Predict's bits.

// Values the forests draw thresholds from and the rows draw features
// from: the corners of the key order (signed zeros, infinities, the
// float32 range's edges, values float32 cannot hold) beside ordinary
// numbers.
var scoreCorners = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, -1.0 / 3, 100, 12345.678,
	math.Inf(1), math.Inf(-1), math.MaxFloat32, -math.MaxFloat32, 1e300, -1e300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-300, -1e-300,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
}

// Tree shapes randomTree grows.
const (
	shapeRandom = iota
	shapeLeftChain
	shapeRightChain
	numShapes
)

// randomTree grows a tree of the given leaf count by splitting one leaf
// at a time; a chain keeps splitting the child it just made, so 32
// leaves give depth 31.
func randomTree(rng *xrand.Rand, leaves, shape int, feat func() int32, thr, val func() float64) Tree {
	nodes := []treeNode{{Feature: -1}}
	open := []int32{0}
	for len(open) < leaves {
		pick := rng.Intn(len(open))
		switch shape {
		case shapeLeftChain:
			pick = 0
		case shapeRightChain:
			pick = len(open) - 1
		}
		l := int32(len(nodes))
		nodes[open[pick]] = treeNode{Feature: feat(), Threshold: thr(), Left: l, Right: l + 1}
		nodes = append(nodes, treeNode{Feature: -1}, treeNode{Feature: -1})
		open[pick] = l
		open = append(open, l+1)
	}
	for i := range nodes {
		if nodes[i].Feature < 0 {
			nodes[i].Value = val()
		}
	}
	return Tree{nodes: nodes}
}

// randomForest builds a model over nFeat features, one of which no node
// reads when nFeat > 1, with thresholds drawn from a small pool so equal
// thresholds recur across and within trees. It returns the pool for the
// rows to hit exactly.
func randomForest(rng *xrand.Rand) (m *Model, nFeat int, pool []float64) {
	nFeat = 1 + rng.Intn(6)
	unread := int32(-1)
	if nFeat > 1 {
		unread = int32(rng.Intn(nFeat))
	}
	feat := func() int32 {
		for {
			if f := int32(rng.Intn(nFeat)); f != unread {
				return f
			}
		}
	}
	pool = make([]float64, 1+rng.Intn(8))
	for i := range pool {
		if rng.Bool(0.5) {
			pool[i] = scoreCorners[rng.Intn(len(scoreCorners))]
		} else {
			pool[i] = rng.NormFloat64() * 50
		}
	}
	thr := func() float64 { return pool[rng.Intn(len(pool))] }
	val := func() float64 { return rng.NormFloat64() * 10 }

	m = &Model{Base: rng.NormFloat64() * 5, Rate: []float64{0.1, 1, -0.3}[rng.Intn(3)]}
	nTrees := []int{0, 1, 2, 7, 40}[rng.Intn(5)]
	for t := 0; t < nTrees; t++ {
		leaves := 1 + rng.Intn(maxLeaves)
		switch rng.Intn(6) {
		case 0:
			leaves = 2 // stump
		case 1:
			leaves = maxLeaves
		}
		m.Trees = append(m.Trees, randomTree(rng, leaves, rng.Intn(numShapes), feat, thr, val))
	}
	return m, nFeat, pool
}

// probeRows draws rows whose features sit on, just beside and far from
// the thresholds, with NaN, infinities and signed zeros mixed in.
func probeRows(rng *xrand.Rand, n, nFeat int, pool []float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, nFeat)
		for f := range row {
			t := pool[rng.Intn(len(pool))]
			switch rng.Intn(7) {
			case 0:
				row[f] = t
			case 1:
				row[f] = math.Nextafter(t, math.Inf(1))
			case 2:
				row[f] = math.Nextafter(t, math.Inf(-1))
			case 3:
				row[f] = math.NaN()
			case 4:
				row[f] = scoreCorners[rng.Intn(len(scoreCorners))]
			default:
				row[f] = rng.NormFloat64() * 60
			}
		}
		rows[i] = row
	}
	return rows
}

// flatRows lays rows of equal length back to back, as PredictRows takes
// them.
func flatRows(xs [][]float64) (flat []float64, stride int) {
	for _, x := range xs {
		flat = append(flat, x...)
	}
	if len(xs) > 0 {
		stride = len(xs[0])
	}
	return flat, stride
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkScorer holds every scoring surface of s to the reference margins
// on rows (all of length nFeat).
func checkScorer(t *testing.T, name string, s *Compiled, nFeat int, rows [][]float64, ref func(x []float64) ([]float64, float64)) {
	t.Helper()
	if s.InputsNeeded() > nFeat {
		t.Fatalf("%s: needs %d inputs, forest has %d features", name, s.InputsNeeded(), nFeat)
	}
	want := make([]float64, len(rows))
	flat, _ := flatRows(rows)
	for i, x := range rows {
		wantMargins, y := ref(x)
		want[i] = y
		if got := s.Predict(x); !sameBits(got, y) {
			t.Fatalf("%s row %d %v: Predict %v, reference %v", name, i, x, got, y)
		}
		margins, final := s.PredictMargins(x, nil)
		if !sameBits(final, y) || len(margins) != s.NumTrees() || len(margins) != len(wantMargins) {
			t.Fatalf("%s row %d: PredictMargins final %v with %d margins, reference %v with %d", name, i, final, len(margins), y, len(wantMargins))
		}
		for k := range margins {
			if !sameBits(margins[k], wantMargins[k]) {
				t.Fatalf("%s row %d: margin %d is %v, reference %v", name, i, k, margins[k], wantMargins[k])
			}
		}
	}
	// Groups of every size around PredictRows' four-row blocks — whole
	// blocks, each length of tail, and both together — through one
	// Scratch, so every call starts from words an earlier call left.
	out := make([]float64, len(rows))
	var scratch Scratch
	for _, group := range []int{1, 2, 3, 4, 5, 7, 8, 9, 256} {
		for i := range out {
			out[i] = math.NaN()
		}
		for lo := 0; lo < len(rows); lo += group {
			hi := min(lo+group, len(rows))
			s.PredictRows(flat[lo*nFeat:hi*nFeat], nFeat, out[lo:hi], &scratch)
		}
		for i := range out {
			if !sameBits(out[i], want[i]) {
				t.Fatalf("%s row %d in groups of %d: %v, reference %v", name, i, group, out[i], want[i])
			}
		}
	}
}

// checkForest compiles m and holds the layout to the pointer walk,
// directly and through a slab round trip on both decode paths.
func checkForest(t *testing.T, m *Model, nFeat int, rows [][]float64) {
	t.Helper()
	exactRef := func(x []float64) (margins []float64, y float64) {
		y = m.Base
		for i := range m.Trees {
			y += m.Rate * m.Trees[i].Predict(x)
			margins = append(margins, y)
		}
		if want := m.Predict(x); !sameBits(y, want) {
			t.Fatalf("reference margins end at %v, Model.Predict gives %v", y, want)
		}
		return margins, y
	}
	c := Compile(m)
	checkScorer(t, "exact", c, nFeat, rows, exactRef)

	cb := c.AppendSlab(nil)
	if len(cb) != c.SlabSize() {
		t.Fatalf("slab size %d, SlabSize says %d", len(cb), c.SlabSize())
	}
	for _, forceCopy := range []bool{false, true} {
		slabForceCopy = forceCopy
		cd, err := CompiledFromSlab(cb)
		slabForceCopy = false
		if err != nil {
			t.Fatalf("forceCopy=%v: the compiled layout did not validate: %v", forceCopy, err)
		}
		if string(cd.AppendSlab(nil)) != string(cb) {
			t.Fatalf("forceCopy=%v: re-encoded slab differs", forceCopy)
		}
		checkScorer(t, "exact slab", cd, nFeat, rows[:min(len(rows), 32)], exactRef)
	}
}

// TestScoreMatchesWalk is the differential property over random
// forests: 1–32 leaves, stumps, depth-31 chains, equal thresholds across
// and within trees, zero trees, a feature no node reads.
func TestScoreMatchesWalk(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		rng := xrand.New(seed)
		m, nFeat, pool := randomForest(rng)
		checkForest(t, m, nFeat, probeRows(rng, 256, nFeat, pool))
	}
}

// TestScoreFixedShapes pins the shapes the random draw only meets by
// chance: the two 32-leaf chains on one feature with a single repeated
// threshold, a lone leaf for a tree, and no trees at all.
func TestScoreFixedShapes(t *testing.T) {
	rng := xrand.New(5)
	one := func() int32 { return 0 }
	same := func() float64 { return 7 }
	val := func() float64 { return rng.NormFloat64() }
	m := &Model{Base: 1.5, Rate: 0.1, Trees: []Tree{
		randomTree(rng, maxLeaves, shapeLeftChain, one, same, val),
		randomTree(rng, maxLeaves, shapeRightChain, one, same, val),
		randomTree(rng, 1, shapeRandom, one, same, val),
		randomTree(rng, maxLeaves, shapeRandom, one, func() float64 { return float64(rng.Intn(4)) }, val),
	}}
	rows := [][]float64{{7}, {math.Nextafter(7, 8)}, {math.Nextafter(7, 6)}, {math.NaN()}, {math.Inf(1)},
		{math.Inf(-1)}, {0}, {math.Copysign(0, -1)}, {1}, {2}, {3}, {2.5}}
	checkForest(t, m, 1, rows)
	checkForest(t, &Model{Base: -2, Rate: 0.1}, 3, [][]float64{{1, 2, 3}, {math.NaN(), 0, 0}})
}

// TestScoreManyTrees holds a forest past treeWords' 1024 trees — the
// paper's M = 1K plus a block — to the pointer walk: its words come from
// the heap, and the all-ones reset must fill them beyond one treeWords.
func TestScoreManyTrees(t *testing.T) {
	rng := xrand.New(11)
	feat := func() int32 { return int32(rng.Intn(3)) }
	thr := func() float64 { return rng.NormFloat64() * 50 }
	val := func() float64 { return rng.NormFloat64() * 10 }
	m := &Model{Base: 0.5, Rate: 0.1}
	for range len(treeWords{}) + 77 {
		m.Trees = append(m.Trees, randomTree(rng, 1+rng.Intn(maxLeaves), shapeRandom, feat, thr, val))
	}
	checkForest(t, m, 3, probeRows(rng, 40, 3, []float64{-50, 0, 50}))
}

// FuzzScoreMatchesWalk lets the fuzzer pick the forest (by seed) and the
// rows (raw float64 bit patterns, so NaN payloads, subnormals and every
// neighbour of a threshold are within reach), and holds the layout to
// the pointer walk.
func FuzzScoreMatchesWalk(f *testing.F) {
	corners := make([]byte, 0, 8*len(scoreCorners))
	for _, v := range scoreCorners {
		corners = binary.LittleEndian.AppendUint64(corners, math.Float64bits(v))
	}
	f.Add(uint64(1), corners)
	f.Add(uint64(7), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	f.Add(uint64(99), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		rng := xrand.New(seed)
		m, nFeat, pool := randomForest(rng)
		rows := probeRows(rng, 8, nFeat, pool)
		for len(raw) >= 8 && len(rows) < 64 {
			row := make([]float64, nFeat)
			for i := range row {
				if len(raw) >= 8 {
					row[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
					raw = raw[8:]
				}
			}
			rows = append(rows, row)
		}
		checkForest(t, m, nFeat, rows)
	})
}

// TestCompileFoldsNegativeZero pins the corner floatKey alone gets
// wrong: a -0 threshold must route +0 left, as "x <= -0" does.
func TestCompileFoldsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	m := &Model{Rate: 1, Trees: []Tree{{nodes: []treeNode{
		{Feature: 0, Threshold: negZero, Left: 1, Right: 2},
		{Feature: -1, Value: 1},
		{Feature: -1, Value: 2},
	}}}}
	c := Compile(m)
	for _, x := range []float64{0, negZero, -1, 1, math.SmallestNonzeroFloat64} {
		if got, want := c.Predict([]float64{x}), m.Predict([]float64{x}); got != want {
			t.Fatalf("x = %v: compiled %v, pointer walk %v", x, got, want)
		}
	}
}
