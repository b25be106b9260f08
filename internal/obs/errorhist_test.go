package obs

import (
	"math"
	"sync"
	"testing"
)

func TestErrorHistogramSignedQuantiles(t *testing.T) {
	var h ErrorHistogram
	// A symmetric population: ±ln2 in equal measure.
	for i := 0; i < 1000; i++ {
		h.ObserveRatio(2, 1) // over by 2x: +ln2
		h.ObserveRatio(1, 2) // under by 2x: -ln2
	}
	s := h.Snapshot()
	if s.Count() != 2000 || s.UnderCount() != 1000 || s.OverCount() != 1000 {
		t.Fatalf("counts: total=%d under=%d over=%d", s.Count(), s.UnderCount(), s.OverCount())
	}
	ln2 := math.Log(2)
	if p10 := s.Quantile(0.10); math.Abs(p10+ln2) > 0.125*ln2 {
		t.Fatalf("p10 = %v, want ~%v", p10, -ln2)
	}
	if p90 := s.Quantile(0.90); math.Abs(p90-ln2) > 0.125*ln2 {
		t.Fatalf("p90 = %v, want ~%v", p90, ln2)
	}
	// The median of a perfectly symmetric population sits at one of the
	// two spikes; it must not exceed their magnitude.
	if p50 := s.Quantile(0.50); math.Abs(p50) > ln2*1.125 {
		t.Fatalf("p50 = %v, want within ±%v", p50, ln2)
	}
}

func TestErrorHistogramSkewedPopulation(t *testing.T) {
	var h ErrorHistogram
	// 90% accurate within noise, 10% 8x over-estimates.
	for i := 0; i < 900; i++ {
		h.Observe(1e-4)
	}
	for i := 0; i < 100; i++ {
		h.ObserveRatio(8, 1)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); math.Abs(p50) > 1e-3 {
		t.Fatalf("p50 = %v, want ~0", p50)
	}
	ln8 := math.Log(8)
	if p99 := s.Quantile(0.99); math.Abs(p99-ln8) > 0.125*ln8 {
		t.Fatalf("p99 = %v, want ~%v", p99, ln8)
	}
	sum := s.Summarize()
	if sum.Count != 1000 || sum.OverCount != 1000 || sum.UnderCount != 0 {
		t.Fatalf("summary counts: %+v", sum)
	}
	if math.Abs(sum.MaxAbs-ln8) > 0.01 {
		t.Fatalf("MaxAbs = %v, want ~%v", sum.MaxAbs, ln8)
	}
}

func TestErrorHistogramQuantileOrdering(t *testing.T) {
	var h ErrorHistogram
	for _, lr := range []float64{-2.5, -1, -0.3, -0.01, 0.02, 0.4, 1.5, 3} {
		for i := 0; i < 50; i++ {
			h.Observe(lr)
		}
	}
	s := h.Snapshot()
	prev := math.Inf(-1)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: q=%v gave %v after %v", q, v, prev)
		}
		prev = v
	}
	if lo := s.Quantile(0); lo > -2.5/1.125 {
		t.Fatalf("q0 = %v, want near -2.5", lo)
	}
	if hi := s.Quantile(1); hi < 3/1.125 {
		t.Fatalf("q1 = %v, want near 3", hi)
	}
}

func TestErrorHistogramEdgeInputs(t *testing.T) {
	var h ErrorHistogram
	h.ObserveRatio(1, 0)          // invalid actual: ignored
	h.ObserveRatio(-1, 1)         // invalid predicted: ignored
	h.ObserveRatio(math.NaN(), 1) // ignored
	h.ObserveRatio(1, math.NaN()) // ignored
	h.Observe(math.NaN())         // ignored
	if s := h.Snapshot(); s.Count() != 0 {
		t.Fatalf("invalid inputs recorded: count=%d", s.Count())
	}
	h.ObserveRatio(0, 1) // zero prediction: maximal under-estimate
	h.Observe(math.Inf(1))
	s := h.Snapshot()
	if s.UnderCount() != 1 || s.OverCount() != 1 {
		t.Fatalf("counts after extremes: under=%d over=%d", s.UnderCount(), s.OverCount())
	}
	if q := s.Quantile(0); q >= 0 {
		t.Fatalf("q0 = %v, want very negative", q)
	}
	if q := s.Quantile(1); q <= 0 {
		t.Fatalf("q1 = %v, want very positive", q)
	}
}

func TestErrorHistogramNilAndEmpty(t *testing.T) {
	var h *ErrorHistogram
	h.Observe(1)         // must not panic
	h.ObserveRatio(2, 1) // must not panic
	s := h.Snapshot()
	if s.Count() != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram snapshot not empty: %+v", s)
	}
	sum := s.Summarize()
	if sum.Count != 0 || sum.P99 != 0 || sum.MaxAbs != 0 {
		t.Fatalf("nil summary not zero: %+v", sum)
	}
}

func TestErrorHistogramMerge(t *testing.T) {
	var a, b ErrorHistogram
	for i := 0; i < 100; i++ {
		a.Observe(-0.5)
		b.Observe(0.5)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(&sb)
	if sa.Count() != 200 || sa.UnderCount() != 100 || sa.OverCount() != 100 {
		t.Fatalf("merged counts: %d/%d/%d", sa.Count(), sa.UnderCount(), sa.OverCount())
	}
	if p90 := sa.Quantile(0.90); math.Abs(p90-0.5) > 0.5*0.125 {
		t.Fatalf("merged p90 = %v", p90)
	}
}

func TestErrorHistogramConcurrent(t *testing.T) {
	var h ErrorHistogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if g%2 == 0 {
					h.Observe(0.7)
				} else {
					h.Observe(-0.7)
				}
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count() != 8000 || s.UnderCount() != 4000 {
		t.Fatalf("concurrent counts: %d total, %d under", s.Count(), s.UnderCount())
	}
}
