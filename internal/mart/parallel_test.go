package mart

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/par"
	"repro/internal/xrand"
)

// syntheticTrainingSet builds a deterministic nonlinear regression
// problem large enough to cross every parallelism threshold (row
// binning, histogram split finding, prediction update).
func syntheticTrainingSet(n, nFeatures int, seed uint64) ([][]float64, []float64) {
	rng := xrand.New(seed)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, nFeatures)
		for f := range row {
			row[f] = rng.Range(0, 1000)
		}
		xs[i] = row
		y := row[0]*3 + row[1]*row[1]/500
		if row[2] > 600 {
			y += 250
		}
		ys[i] = y + rng.Range(0, 10)
	}
	return xs, ys
}

// TestTrainBitIdenticalAcrossWorkers is the tentpole determinism
// guarantee at the mart layer: the encoded model bytes must be
// identical at every worker count, including counts that are not
// divisors of the feature or row counts and counts above GOMAXPROCS.
func TestTrainBitIdenticalAcrossWorkers(t *testing.T) {
	xs, ys := syntheticTrainingSet(3000, 9, 11)
	cfg := DefaultConfig()
	cfg.Iterations = 40

	encode := func(workers int) []byte {
		cfg.Workers = workers
		m, err := Train(xs, ys, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		enc, err := m.EncodeBinary()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return enc
	}

	want := encode(1)
	for _, w := range []int{2, 7, runtime.GOMAXPROCS(0), 0} {
		if got := encode(w); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: encoded model differs from sequential (%d vs %d bytes)",
				w, len(got), len(want))
		}
	}
}

// TestTrainBitIdenticalWithoutSubsampling covers the full-batch path
// (SubsampleFrac = 1 skips the shuffle entirely), whose row set hits
// the in-place partition arena differently.
func TestTrainBitIdenticalWithoutSubsampling(t *testing.T) {
	xs, ys := syntheticTrainingSet(1500, 6, 23)
	cfg := DefaultConfig()
	cfg.Iterations = 25
	cfg.SubsampleFrac = 1

	var want []byte
	for _, w := range []int{1, 3, 8} {
		cfg.Workers = w
		m, err := Train(xs, ys, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		enc, err := m.EncodeBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = enc
		} else if !bytes.Equal(enc, want) {
			t.Fatalf("workers=%d: model differs from workers=1", w)
		}
	}
}

// TestGrowTreeLeavesSubsampleUntouched pins the arena-copy contract:
// growTree partitions rows in place, and a reordered caller slice would
// silently change the next iteration's shuffle (and so the model).
func TestGrowTreeLeavesSubsampleUntouched(t *testing.T) {
	xs, ys := syntheticTrainingSet(400, 5, 7)
	pool := par.NewPool(4)
	defer pool.Close()
	b := newBinner(xs, 5, pool)
	binned := b.binMatrix(xs, pool)
	rows := make([]int, len(xs))
	for i := range rows {
		rows[i] = len(rows) - 1 - i // distinctive order
	}
	before := append([]int(nil), rows...)
	sc := newTrainScratch(len(xs), 10, 5)
	tr := growTree(binned, ys, rows, b, 10, 3, pool, sc)
	if tr.NumLeaves() < 2 {
		t.Fatal("tree did not split; partition path not exercised")
	}
	for i := range rows {
		if rows[i] != before[i] {
			t.Fatalf("growTree reordered the caller's row slice at %d", i)
		}
	}
}
