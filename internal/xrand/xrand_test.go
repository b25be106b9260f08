package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 64", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split("data")
	c2 := root.Split("workload")
	c1b := New(7).Split("data")
	if c1.Uint64() != c1b.Uint64() {
		t.Fatal("Split not deterministic")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("differently-named splits produced identical draws")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	a.Split("x")
	a.Split("y")
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split advanced the parent state")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("IntRange(3,5) = %d", v)
		}
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Fatalf("IntRange(4,4) = %d", got)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v, want ~1", variance)
	}
}

func TestNoiseUnitMean(t *testing.T) {
	r := New(19)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Noise(0.2)
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Fatalf("Noise mean %v, want ~1", mean)
	}
	if got := r.Noise(0); got != 1 {
		t.Fatalf("Noise(0) = %v, want exactly 1", got)
	}
}

func TestPerm(t *testing.T) {
	r := New(23)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation at value %d", v)
		}
		seen[v] = true
	}
}

func TestBool(t *testing.T) {
	r := New(31)
	hits := 0
	for i := 0; i < 20000; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / 20000
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("Bool(0.25) frequency %v", frac)
	}
}

func TestRangeProperty(t *testing.T) {
	r := New(37)
	f := func(lo, span float64) bool {
		lo = math.Mod(lo, 1e6)
		span = math.Abs(math.Mod(span, 1e6)) + 1e-9
		v := r.Range(lo, lo+span)
		return v >= lo && v < lo+span
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
