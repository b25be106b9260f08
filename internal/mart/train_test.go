package mart

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// constantColumnsSet is syntheticTrainingSet with columns 3 and 6 made
// constant — the shape of an operator's feature matrix, where 10–20 %
// of the columns never vary and so can never split.
func constantColumnsSet(n int, seed uint64) ([][]float64, []float64) {
	xs, ys := syntheticTrainingSet(n, 8, seed)
	for _, row := range xs {
		row[3], row[6] = 42, 0
	}
	return xs, ys
}

// refSplitForFeature is the per-feature histogram scan leafSplits
// replaced — one strided pass over the leaf's rows per feature — kept
// as the reference the one-pass kernel must reproduce bit for bit.
func refSplitForFeature(binned []uint8, nc int, resid []float64, rows []int,
	edges []float64, f int, total, parentScore float64, n, minLeaf int) splitCand {

	nb := len(edges)
	if nb < 2 {
		return splitCand{}
	}
	histSum := make([]float64, nb)
	histCnt := make([]int, nb)
	for _, r := range rows {
		bin := binned[r*nc+f]
		histSum[bin] += resid[r]
		histCnt[bin]++
	}
	var cand splitCand
	var leftSum float64
	leftCnt := 0
	for k := 0; k < nb-1; k++ {
		leftSum += histSum[k]
		leftCnt += histCnt[k]
		rightCnt := n - leftCnt
		if leftCnt < minLeaf || rightCnt < minLeaf {
			continue
		}
		rightSum := total - leftSum
		gain := leftSum*leftSum/float64(leftCnt) +
			rightSum*rightSum/float64(rightCnt) - parentScore
		if gain > cand.gain {
			cand = splitCand{gain: gain, bin: k, ok: true}
		}
	}
	return cand
}

// TestLeafSplitsMatchesPerFeatureScan runs the kernel over every column
// of the matrix — constant ones included, which Train compacts away —
// on random leaves, with the columns chunked as 1, 2 and 7 workers
// would take them, and demands the reference's candidate for each.
func TestLeafSplitsMatchesPerFeatureScan(t *testing.T) {
	const n, nc, minLeaf = 600, 8, 3
	xs, resid := constantColumnsSet(n, 5)
	full := &binner{}
	for f := 0; f < nc; f++ {
		full.feat = append(full.feat, int32(f))
		full.edges = append(full.edges, quantileEdges(xs, f))
	}
	binned := full.binMatrix(xs, nil)

	live := newBinner(xs, nc, nil)
	if got, want := live.feat, []int32{0, 1, 2, 4, 5, 7}; len(got) != len(want) {
		t.Fatalf("live columns %v, want %v", got, want)
	}
	for c, f := range live.feat {
		if f == 3 || f == 6 || len(live.edges[c]) != len(full.edges[f]) {
			t.Fatalf("live column %d is feature %d with %d edges, want a varying feature with %d",
				c, f, len(live.edges[c]), len(full.edges[f]))
		}
	}

	rng := xrand.New(9)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	hist := make([]featHist, nc)
	cands := make([]splitCand, nc)
	for _, size := range []int{n, 257, 40, 2 * minLeaf, 2*minLeaf - 1, 1} {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		rows := perm[:size]
		var total float64
		for _, r := range rows {
			total += resid[r]
		}
		parentScore := total * total / float64(size)
		for _, workers := range []int{1, 2, 7} {
			for i := range cands {
				cands[i] = splitCand{gain: -1, bin: -1, ok: true} // every slot must be overwritten
			}
			for c := 0; c < workers; c++ { // par.Pool.ForChunks's ranges
				clo, chi := c*nc/workers, (c+1)*nc/workers
				leafSplits(binned, resid, rows, full.edges, clo, chi, total, minLeaf, hist, cands)
			}
			for f := 0; f < nc; f++ {
				want := refSplitForFeature(binned, nc, resid, rows, full.edges[f], f, total, parentScore, size, minLeaf)
				if got := cands[f]; got.ok != want.ok || got.bin != want.bin ||
					math.Float64bits(got.gain) != math.Float64bits(want.gain) {
					t.Errorf("leaf of %d rows, %d workers, feature %d: kernel %+v, reference %+v",
						size, workers, f, got, want)
				}
			}
		}
	}
}

// checkFitted demands that every fitted value is the bits both
// prediction walks return for its row.
func checkFitted(t *testing.T, m *Model, xs [][]float64, fitted []float64) {
	t.Helper()
	if len(fitted) != len(xs) {
		t.Fatalf("%d fitted values for %d rows", len(fitted), len(xs))
	}
	c := Compile(m)
	for i, x := range xs {
		f := math.Float64bits(fitted[i])
		if p := m.Predict(x); math.Float64bits(p) != f {
			t.Fatalf("row %d: fitted %v, Model.Predict %v", i, fitted[i], p)
		}
		if p := c.Predict(x); math.Float64bits(p) != f {
			t.Fatalf("row %d: fitted %v, Compiled.Predict %v", i, fitted[i], p)
		}
	}
}

func TestFittedIsPredict(t *testing.T) {
	xs, ys := constantColumnsSet(1200, 3)
	cfg := DefaultConfig()
	cfg.Iterations = 30
	m, fitted, err := TrainFitted(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTrees() != cfg.Iterations {
		t.Fatalf("%d trees, want the full %d", m.NumTrees(), cfg.Iterations)
	}
	checkFitted(t, m, xs, fitted)
}

// TestFittedIsPredictAfterEarlyStop takes the branch that folds the last
// root-only tree into Base under the trees already added. The one
// feature is a rare flag, and the leaf-size floor sits where a 70 %
// subsample sometimes holds too few flagged rows to split on: the first
// such iteration stops the fit with trees behind it and a non-zero
// shift.
func TestFittedIsPredictAfterEarlyStop(t *testing.T) {
	const n, flagged = 200, 20
	rng := xrand.New(4)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{0}
		if i < flagged {
			xs[i][0] = 1
			ys[i] = 100
		}
		ys[i] += rng.Range(0, 10)
	}
	cfg := DefaultConfig()
	cfg.Iterations = 50
	cfg.MinLeafSize = 12
	cfg.Seed = 5
	m, fitted, err := TrainFitted(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= n
	if m.NumTrees() == 0 || m.NumTrees() == cfg.Iterations || m.Base == mean {
		t.Fatalf("%d trees of %d, base %v (mean %v): early stop after a tree, with a shift, not exercised",
			m.NumTrees(), cfg.Iterations, m.Base, mean)
	}
	checkFitted(t, m, xs, fitted)
}

// TestConstantColumnsModelBytes pins a fit over a matrix with constant
// columns to the bytes the per-feature trainer produced before the
// columns were compacted out of the bin matrix (SHA-256 of
// EncodeBinary, taken at the parent commit), at several worker counts.
func TestConstantColumnsModelBytes(t *testing.T) {
	const want = "52c8b4e9a5e7107ec3dba60a393cb21e198a15ebb98e890668ac3a3f872eabfb"
	xs, ys := constantColumnsSet(1500, 21)
	cfg := DefaultConfig()
	cfg.Iterations = 30
	for _, workers := range []int{1, 2, 7} {
		cfg.Workers = workers
		m, err := Train(xs, ys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := m.EncodeBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers=%d: model SHA-256 %s, want %s", workers, got, want)
		}
	}
}

// TestTrainRejectsNonFinite: a NaN feature would bin left and route
// right, and a non-finite target poisons the mean, so Train names the
// first offending row instead of fitting either.
func TestTrainRejectsNonFinite(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Iterations = 5
	for _, tc := range []struct {
		name string
		poke func(xs [][]float64, ys []float64)
		want string
	}{
		{"NaN feature", func(xs [][]float64, _ []float64) { xs[17][2] = math.NaN(); xs[40][0] = math.NaN() }, "row 17: feature 2 is NaN"},
		{"NaN target", func(_ [][]float64, ys []float64) { ys[8] = math.NaN() }, "row 8: target is NaN"},
		{"+Inf target", func(_ [][]float64, ys []float64) { ys[30] = math.Inf(1) }, "row 30: target is +Inf"},
		{"-Inf target", func(_ [][]float64, ys []float64) { ys[0] = math.Inf(-1) }, "row 0: target is -Inf"},
		{"target before feature", func(xs [][]float64, ys []float64) { xs[9][1] = math.NaN(); ys[5] = math.NaN() }, "row 5: target is NaN"},
	} {
		xs, ys := syntheticTrainingSet(64, 4, 1)
		tc.poke(xs, ys)
		if _, err := Train(xs, ys, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// Infinite features are ordered, bin and route consistently, and stay legal.
	xs, ys := syntheticTrainingSet(64, 4, 1)
	xs[3][1], xs[4][1] = math.Inf(1), math.Inf(-1)
	if _, err := Train(xs, ys, cfg); err != nil {
		t.Errorf("infinite feature values: %v", err)
	}
}

var benchTrainSink *Model

// BenchmarkTrain is one sequential fit the size of a large operator's:
// 4000 rows × 8 features, two of them constant, 200 boosting iterations.
func BenchmarkTrain(b *testing.B) {
	xs, ys := constantColumnsSet(4000, 1)
	cfg := DefaultConfig()
	cfg.Iterations = 200
	cfg.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Train(xs, ys, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchTrainSink = m
	}
	b.ReportMetric(float64(len(xs)*cfg.Iterations*b.N)/b.Elapsed().Seconds(), "rows·trees/s")
}
