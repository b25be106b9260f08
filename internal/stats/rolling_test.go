package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestRollingFillAndEvict(t *testing.T) {
	r := NewRolling(4)
	if r.Len() != 0 || r.Cap() != 4 {
		t.Fatalf("fresh window: len %d cap %d", r.Len(), r.Cap())
	}
	if r.Mean() != 0 || r.Quantile(0.5) != 0 {
		t.Fatal("empty window should snapshot to zeros")
	}
	for _, v := range []float64{1, 2, 3} {
		r.Add(v)
	}
	if r.Len() != 3 || r.Mean() != 2 {
		t.Fatalf("partial window: len %d mean %v", r.Len(), r.Mean())
	}
	r.Add(4)
	r.Add(100) // evicts 1
	if r.Len() != 4 {
		t.Fatalf("full window len %d, want 4", r.Len())
	}
	if want := (2 + 3 + 4 + 100) / 4.0; r.Mean() != want {
		t.Fatalf("mean after eviction %v, want %v", r.Mean(), want)
	}
	// Max must be the newest value, min the oldest survivor.
	if got := r.Quantile(1); got != 100 {
		t.Fatalf("max %v, want 100", got)
	}
	if got := r.Quantile(0); got != 2 {
		t.Fatalf("min %v, want 2", got)
	}
	r.Reset()
	if r.Len() != 0 || r.Mean() != 0 {
		t.Fatal("reset did not empty the window")
	}
	r.Add(7)
	if r.Len() != 1 || r.Mean() != 7 {
		t.Fatal("window unusable after reset")
	}
}

// TestRollingMatchesBruteForce cross-checks the ring buffer against a
// plain keep-the-last-K slice over a random stream.
func TestRollingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const capacity = 32
	r := NewRolling(capacity)
	var tail []float64
	qs := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
	for i := 0; i < 500; i++ {
		v := rng.ExpFloat64() * 10
		r.Add(v)
		tail = append(tail, v)
		if len(tail) > capacity {
			tail = tail[1:]
		}
		if r.Len() != len(tail) {
			t.Fatalf("step %d: len %d, want %d", i, r.Len(), len(tail))
		}
		sorted := append([]float64(nil), tail...)
		sort.Float64s(sorted)
		got := r.Quantiles(qs...)
		for j, q := range qs {
			want := Quantile(sorted, q)
			if math.Abs(got[j]-want) > 1e-12 {
				t.Fatalf("step %d q=%v: got %v, want %v", i, q, got[j], want)
			}
			if single := r.Quantile(q); math.Abs(single-want) > 1e-12 {
				t.Fatalf("step %d q=%v: Quantile %v, want %v", i, q, single, want)
			}
		}
		if want := Mean(tail); math.Abs(r.Mean()-want) > 1e-9 {
			t.Fatalf("step %d: mean %v, want %v", i, r.Mean(), want)
		}
	}
}

// TestSelectQuantileMatchesSort requires selection to return the very
// bits a full sort and Quantile give, over random windows of every
// fill up to the feedback loop's 512 — drawn from a handful of values,
// so ties abound, with zeros among them, or continuous — at the drift
// quantile, the bounds and quantiles that land exactly on an element,
// and through Rolling.Quantile as the window slides and wraps.
func TestSelectQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	qs := []float64{-1, 0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1, 2}
	draws := []func() float64{
		func() float64 { return float64(rng.Intn(4)) },                    // ties, a quarter zeros
		func() float64 { return float64(rng.Intn(2)) * rng.ExpFloat64() }, // half zeros
		func() float64 { return rng.ExpFloat64() },                        // continuous
	}
	sortedQuantile := func(xs []float64, q float64) float64 {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return Quantile(sorted, q)
	}
	for trial := 0; trial < 300; trial++ {
		draw := draws[trial%len(draws)]
		xs := make([]float64, 1+rng.Intn(512))
		for i := range xs {
			xs[i] = draw()
		}
		for _, q := range qs {
			want := sortedQuantile(xs, q)
			got := SelectQuantile(append([]float64(nil), xs...), q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, %d values, q=%v: selected %v, sorted %v", trial, len(xs), q, got, want)
			}
		}
	}
	for _, draw := range draws {
		r := NewRolling(512)
		var tail []float64
		for i := 0; i < 1500; i++ {
			v := draw()
			r.Add(v)
			if tail = append(tail, v); len(tail) > 512 {
				tail = tail[1:]
			}
			if i%7 != 0 {
				continue
			}
			for _, q := range qs {
				if got, want := r.Quantile(q), sortedQuantile(tail, q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d q=%v: Rolling.Quantile %v, sorted %v", i, q, got, want)
				}
			}
		}
	}
}
