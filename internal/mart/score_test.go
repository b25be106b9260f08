package mart

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/xrand"
)

// The scoring loop is held to the pointer walk it replaced: for any
// forest the decoders and the trainer can produce, and any row, the
// compiled layout must return Model.Predict's bits, and the quantized
// layout the bits of the float32 node walk it replaced (refQ below).

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

// refQ is the float32 root-to-leaf walk the quantized layout replaced,
// kept as the reference: thresholds rounded up to float32 and keyed,
// features narrowed toward +Inf and keyed, right when the feature's key
// exceeds the node's, float32 leaves widened into a float64 sum.
type refQ struct {
	base, rate float64
	trees      [][]refQNode
}

type refQNode struct {
	feat, left, right int32 // feat < 0: a leaf
	key               uint32
	value             float32
}

func refNarrow(f float64) float32 {
	f32 := float32(f)
	if float64(f32) < f {
		f32 = math.Nextafter32(f32, float32(math.Inf(1)))
	}
	return f32
}

func newRefQ(m *Model) *refQ {
	r := &refQ{base: m.Base, rate: m.Rate}
	for ti := range m.Trees {
		nodes := make([]refQNode, len(m.Trees[ti].nodes))
		for i, n := range m.Trees[ti].nodes {
			thr := n.Threshold
			if thr == 0 {
				thr = 0 // the exact layout keys -0 as +0, and Quantize starts from its keys
			}
			nodes[i] = refQNode{feat: n.Feature, left: n.Left, right: n.Right,
				key: floatKey32(refNarrow(thr)), value: float32(n.Value)}
		}
		r.trees = append(r.trees, nodes)
	}
	return r
}

func (r *refQ) margins(x []float64) (margins []float64, y float64) {
	y = r.base
	for _, nodes := range r.trees {
		i := int32(0)
		for nodes[i].feat >= 0 {
			if floatKey32(refNarrow(x[nodes[i].feat])) > nodes[i].key {
				i = nodes[i].right
			} else {
				i = nodes[i].left
			}
		}
		y += r.rate * float64(nodes[i].value)
		margins = append(margins, y)
	}
	return margins, y
}

// scorer is what Compiled and CompiledQ share.
type scorer interface {
	NumTrees() int
	InputsNeeded() int
	Predict(x []float64) float64
	PredictMargins(x []float64, dst []float64) ([]float64, float64)
	PredictBatch(xs [][]float64, out []float64)
	PredictRows(flat []float64, stride int, out []float64)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkScorer holds every scoring surface of s to the reference margins
// on rows (all of length nFeat).
func checkScorer(t *testing.T, name string, s scorer, nFeat int, rows [][]float64, ref func(x []float64) ([]float64, float64)) {
	t.Helper()
	if s.InputsNeeded() > nFeat {
		t.Fatalf("%s: needs %d inputs, forest has %d features", name, s.InputsNeeded(), nFeat)
	}
	want := make([]float64, len(rows))
	var flat []float64
	for i, x := range rows {
		wantMargins, y := ref(x)
		want[i] = y
		flat = append(flat, x...)
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
	out := make([]float64, len(rows))
	for _, group := range []int{1, 5, 8, 9, 256} {
		for i := range out {
			out[i] = math.NaN()
		}
		for lo := 0; lo < len(rows); lo += group {
			hi := min(lo+group, len(rows))
			if group == 5 {
				s.PredictRows(flat[lo*nFeat:hi*nFeat], nFeat, out[lo:hi])
			} else {
				s.PredictBatch(rows[lo:hi], out[lo:hi])
			}
		}
		for i := range out {
			if !sameBits(out[i], want[i]) {
				t.Fatalf("%s row %d in groups of %d: %v, reference %v", name, i, group, out[i], want[i])
			}
		}
	}
}

// checkForest compiles m and holds the exact layout to the pointer walk
// and the quantized one to refQ, directly and through a slab round trip
// on both decode paths.
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
	q := c.Quantize()
	checkScorer(t, "exact", c, nFeat, rows, exactRef)
	checkScorer(t, "quantized", q, nFeat, rows, newRefQ(m).margins)

	cb, qb := c.AppendSlab(nil), q.AppendSlab(nil)
	if len(cb) != c.SlabSize() || len(qb) != q.SlabSize() {
		t.Fatalf("slab sizes %d/%d, SlabSize says %d/%d", len(cb), len(qb), c.SlabSize(), q.SlabSize())
	}
	for _, forceCopy := range []bool{false, true} {
		slabForceCopy = forceCopy
		cd, cerr := CompiledFromSlab(cb)
		qd, qerr := CompiledQFromSlab(qb)
		slabForceCopy = false
		if cerr != nil || qerr != nil {
			t.Fatalf("forceCopy=%v: a compiled layout did not validate: %v / %v", forceCopy, cerr, qerr)
		}
		if string(cd.AppendSlab(nil)) != string(cb) || string(qd.AppendSlab(nil)) != string(qb) {
			t.Fatalf("forceCopy=%v: re-encoded slab differs", forceCopy)
		}
		checkScorer(t, "exact slab", cd, nFeat, rows[:min(len(rows), 32)], exactRef)
		checkScorer(t, "quantized slab", qd, nFeat, rows[:min(len(rows), 32)], newRefQ(m).margins)
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

// FuzzScoreMatchesWalk lets the fuzzer pick the forest (by seed) and the
// rows (raw float64 bit patterns, so NaN payloads, subnormals and every
// neighbour of a threshold are within reach), and holds both layouts to
// their references.
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
