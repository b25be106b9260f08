package mart

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/xrand"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Iterations = 150
	return cfg
}

// synth generates n samples of a nonlinear 3-feature function.
func synth(n int, seed uint64, fn func(x []float64) float64) ([][]float64, []float64) {
	rng := xrand.New(seed)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Range(0, 100), rng.Range(0, 10), rng.Range(0, 1)}
		xs[i] = x
		ys[i] = fn(x)
	}
	return xs, ys
}

func stepFn(x []float64) float64 {
	y := 2 * x[0]
	if x[0] > 50 {
		y += 120 // discontinuity MART must capture
	}
	y += 5 * x[1] * x[1] // nonlinear
	return y
}

func TestTrainFitsNonlinear(t *testing.T) {
	xs, ys := synth(2000, 1, stepFn)
	m, err := Train(xs, ys, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// In-sample relative error should be small.
	var relSum float64
	for i := range xs {
		p := m.Predict(xs[i])
		relSum += math.Abs(p-ys[i]) / math.Max(ys[i], 1)
	}
	if rel := relSum / float64(len(xs)); rel > 0.08 {
		t.Fatalf("mean in-sample relative error %v too high", rel)
	}
}

func TestGeneralizesWithinRange(t *testing.T) {
	xs, ys := synth(2000, 2, stepFn)
	m, err := Train(xs, ys, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := synth(300, 99, stepFn)
	var relSum float64
	for i := range tx {
		relSum += math.Abs(m.Predict(tx[i])-ty[i]) / math.Max(ty[i], 1)
	}
	if rel := relSum / float64(len(tx)); rel > 0.15 {
		t.Fatalf("test relative error %v too high", rel)
	}
}

func TestDoesNotExtrapolate(t *testing.T) {
	// The defining failure of plain regression trees (paper Figure 3):
	// beyond the training range the prediction saturates.
	rng := xrand.New(5)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 1500; i++ {
		v := rng.Range(0, 100)
		xs = append(xs, []float64{v})
		ys = append(ys, 10*v)
	}
	m, err := Train(xs, ys, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	far := m.Predict([]float64{1000})
	if far > 1200 {
		t.Fatalf("tree model extrapolated to %v; should saturate near 1000", far)
	}
	if far < 700 {
		t.Fatalf("prediction at the edge should be near the max training target, got %v", far)
	}
}

func TestDeterministicTraining(t *testing.T) {
	xs, ys := synth(500, 3, stepFn)
	m1, _ := Train(xs, ys, testConfig())
	m2, _ := Train(xs, ys, testConfig())
	probe := []float64{33, 4, 0.5}
	if m1.Predict(probe) != m2.Predict(probe) {
		t.Fatal("training not deterministic")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, testConfig()); err == nil {
		t.Fatal("empty training data accepted")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, testConfig()); err == nil {
		t.Fatal("mismatched x/y accepted")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{1, 2}, testConfig()); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	bad := testConfig()
	bad.Iterations = 0
	if _, err := Train([][]float64{{1}}, []float64{1}, bad); err == nil {
		t.Fatal("zero iterations accepted")
	}
	wide := testConfig()
	wide.MaxLeaves = maxLeaves + 1
	if _, err := Train([][]float64{{1}}, []float64{1}, wide); err == nil {
		t.Fatal("33 leaves per tree accepted: a tree's routed word has 32 bits")
	}
}

func TestConstantTarget(t *testing.T) {
	xs, _ := synth(100, 7, stepFn)
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = 42
	}
	m, err := Train(xs, ys, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(xs[0]); math.Abs(got-42) > 1e-6 {
		t.Fatalf("constant target predicted as %v", got)
	}
	// Early stopping: flat residuals need no 150 trees.
	if m.NumTrees() > 5 {
		t.Fatalf("constant fit used %d trees", m.NumTrees())
	}
}

func TestLeafBudget(t *testing.T) {
	xs, ys := synth(1000, 9, stepFn)
	cfg := testConfig()
	cfg.MaxLeaves = 10
	m, _ := Train(xs, ys, cfg)
	for i := range m.Trees {
		if got := m.Trees[i].NumLeaves(); got > 10 {
			t.Fatalf("tree %d has %d leaves", i, got)
		}
	}
}

func TestSingleFeatureRepeatedValues(t *testing.T) {
	// Categorical-ish feature with few distinct values.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 400; i++ {
		v := float64(i % 4)
		xs = append(xs, []float64{v})
		ys = append(ys, v*100)
	}
	m, err := Train(xs, ys, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0.0; v < 4; v++ {
		if got := m.Predict([]float64{v}); math.Abs(got-v*100) > 5 {
			t.Fatalf("class %v predicted %v", v, got)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	xs, ys := synth(800, 11, stepFn)
	m, _ := Train(xs, ys, testConfig())
	buf, err := m.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumTrees() != m.NumTrees() {
		t.Fatalf("tree count changed: %d -> %d", m.NumTrees(), m2.NumTrees())
	}
	for i := 0; i < 50; i++ {
		probe := xs[i]
		a, b := m.Predict(probe), m2.Predict(probe)
		// float32 quantization of thresholds/values allows tiny drift.
		if math.Abs(a-b) > 1e-3*(math.Abs(a)+1) {
			t.Fatalf("round-trip prediction drift: %v vs %v", a, b)
		}
	}
}

func TestEncodingSizePerTree(t *testing.T) {
	// §7.3: a 10-leaf tree encodes in ≲ 130 bytes.
	xs, ys := synth(2000, 13, stepFn)
	cfg := testConfig()
	cfg.Iterations = 200
	m, _ := Train(xs, ys, cfg)
	buf, err := m.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	perTree := float64(len(buf)-25) / float64(m.NumTrees())
	if perTree > 135 {
		t.Fatalf("%.1f bytes/tree, paper budget is ~130", perTree)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeBinary([]byte("not a model")); err == nil {
		t.Fatal("garbage accepted")
	}
	xs, ys := synth(100, 15, stepFn)
	m, _ := Train(xs, ys, testConfig())
	buf, _ := m.EncodeBinary()
	if _, err := DecodeBinary(buf[:len(buf)-3]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
	if _, err := DecodeBinary(append(buf, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestDecodeAcceptsOnlyTrees covers what forward child offsets alone
// let through: shared children (a DAG, which Compile would unfold
// exponentially — the 23-node chain below to 8,388,607 nodes), orphans,
// NaN thresholds (the pointer walk and the key order disagree on them)
// and trees wider than a routed word.
func TestDecodeAcceptsOnlyTrees(t *testing.T) {
	header := func(nTrees uint32) []byte {
		b := append([]byte(nil), magic[:]...)
		b = append(b, encVersion)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.1))
		return binary.LittleEndian.AppendUint32(b, nTrees)
	}
	inner := func(lo, feat uint8, thr float32, ro uint8) []byte {
		b := []byte{lo, feat}
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(thr))
		return append(b, ro)
	}
	leaf := binary.LittleEndian.AppendUint32([]byte{0}, math.Float32bits(2))
	tree := func(nodes ...[]byte) []byte {
		b := append(header(1), uint8(len(nodes)))
		for _, n := range nodes {
			b = append(b, n...)
		}
		return b
	}
	if _, err := DecodeBinary(tree(inner(1, 0, 5, 2), leaf, leaf)); err != nil {
		t.Fatalf("plain stump rejected: %v", err)
	}
	chain := [][]byte{}
	for i := 0; i < 22; i++ {
		chain = append(chain, inner(1, 0, 5, 1))
	}
	nan := float32(math.NaN())
	for name, blob := range map[string][]byte{
		"shared child":        tree(inner(1, 0, 5, 1), leaf, leaf),
		"23-node DAG chain":   tree(append(chain, leaf)...),
		"orphan node":         tree(inner(1, 0, 5, 2), leaf, leaf, leaf),
		"child with two uses": tree(inner(1, 0, 5, 2), inner(1, 0, 5, 2), leaf, leaf),
		"NaN threshold":       tree(inner(1, 0, nan, 2), leaf, leaf),
	} {
		if _, err := DecodeBinary(blob); !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("%s: DecodeBinary returned %v, want ErrBadEncoding", name, err)
		}
	}

	rng := xrand.New(3)
	grow := func(leaves int) []byte {
		m := &Model{Rate: 1, Trees: []Tree{randomTree(rng, leaves, shapeRightChain,
			func() int32 { return 0 }, func() float64 { return float64(rng.Intn(9)) }, rng.Float64)}}
		blob, err := m.EncodeBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if _, err := DecodeBinary(grow(maxLeaves + 1)); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("33-leaf tree: DecodeBinary returned %v, want ErrBadEncoding", err)
	}
	m, err := DecodeBinary(grow(maxLeaves))
	if err != nil {
		t.Fatalf("32-leaf tree rejected: %v", err)
	}
	c := Compile(m)
	for x := -1.0; x < 10; x += 0.5 {
		if got, want := c.Predict([]float64{x}), m.Predict([]float64{x}); got != want {
			t.Fatalf("32-leaf chain at %v: compiled %v, pointer walk %v", x, got, want)
		}
	}
}

func TestSubsamplingStillLearns(t *testing.T) {
	xs, ys := synth(1500, 17, stepFn)
	cfg := testConfig()
	cfg.SubsampleFrac = 0.5
	m, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var relSum float64
	for i := range xs {
		relSum += math.Abs(m.Predict(xs[i])-ys[i]) / math.Max(ys[i], 1)
	}
	if rel := relSum / float64(len(xs)); rel > 0.12 {
		t.Fatalf("subsampled training error %v too high", rel)
	}
}
