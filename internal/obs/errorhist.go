package obs

import (
	"math"
	"time"
)

// The accuracy counterpart of the latency histogram: model-quality
// telemetry records each prediction's signed log-ratio error
//
//	e = ln(predicted / actual)
//
// — negative when the model under-estimates, positive when it
// over-estimates, and symmetric in the ratio sense (a 2x over-estimate
// and a 2x under-estimate sit at ±ln 2). The distribution is stored as
// two latency Histograms mirrored around zero: the magnitude |e| is
// scaled by logRatioScale into the integer bucket domain, reusing the
// log-linear bucket machinery (and its lock-free hot path) unchanged.
// The mapped range covers |e| from 1e-6 (well below any error worth
// distinguishing from zero) up to ~17.2 (a factor of e^17 ≈ 3·10^7),
// with the same ≤ 1/histSub relative bucket error.

// logRatioScale maps a log-ratio magnitude into the histogram's
// integer domain: 1.0 of log-ratio becomes 1e9 units (the histogram's
// "second").
const logRatioScale = 1e9

// ErrorHistogram tracks a signed log-ratio error distribution, safe
// for concurrent use without locks. The zero value is ready to use; a
// nil *ErrorHistogram ignores observations and snapshots as empty.
type ErrorHistogram struct {
	under Histogram // e < 0: predicted below actual
	over  Histogram // e >= 0: predicted at or above actual
}

// logRatioUnits converts a log-ratio magnitude to integer bucket
// units, saturating at the overflow domain (±Inf magnitudes land in
// the overflow bucket rather than corrupting the sum).
func logRatioUnits(mag float64) int64 {
	u := mag * logRatioScale
	if u >= float64(int64(1)<<62) || math.IsInf(u, 1) {
		return int64(1) << 62
	}
	return int64(u)
}

// Observe records one signed log-ratio error. NaN is ignored.
func (h *ErrorHistogram) Observe(logRatio float64) {
	if h == nil || math.IsNaN(logRatio) {
		return
	}
	if logRatio < 0 {
		h.under.Observe(time.Duration(logRatioUnits(-logRatio)))
		return
	}
	h.over.Observe(time.Duration(logRatioUnits(logRatio)))
}

// ObserveRatio records the signed log-ratio error of one (predicted,
// actual) pair. actual must be positive and predicted non-negative (a
// NaN or negative input is ignored); predicted == 0 registers as a
// maximal under-estimate.
func (h *ErrorHistogram) ObserveRatio(predicted, actual float64) {
	if h == nil || !(actual > 0) || !(predicted >= 0) {
		return
	}
	if predicted == 0 {
		h.under.Observe(time.Duration(int64(1) << 62)) // ln 0 = -Inf
		return
	}
	h.Observe(math.Log(predicted / actual))
}

// Snapshot copies the counters (same straddling caveats as
// Histogram.Snapshot).
func (h *ErrorHistogram) Snapshot() ErrorHistogramSnapshot {
	var s ErrorHistogramSnapshot
	if h == nil {
		return s
	}
	s.Under = h.under.Snapshot()
	s.Over = h.over.Snapshot()
	return s
}

// ErrorHistogramSnapshot is a point-in-time copy of an ErrorHistogram:
// the two mirrored halves as plain histogram snapshots.
type ErrorHistogramSnapshot struct {
	Under HistogramSnapshot // magnitudes of under-estimates (e < 0)
	Over  HistogramSnapshot // magnitudes of over-estimates (e >= 0)
}

// Merge folds o into s bucket-wise.
func (s *ErrorHistogramSnapshot) Merge(o *ErrorHistogramSnapshot) {
	s.Under.Merge(&o.Under)
	s.Over.Merge(&o.Over)
}

// Count returns the total number of recorded errors.
func (s *ErrorHistogramSnapshot) Count() uint64 { return s.Under.Count + s.Over.Count }

// UnderCount returns how many observations under-estimated (e < 0).
func (s *ErrorHistogramSnapshot) UnderCount() uint64 { return s.Under.Count }

// OverCount returns how many observations over-estimated (e >= 0).
func (s *ErrorHistogramSnapshot) OverCount() uint64 { return s.Over.Count }

// Quantile returns the q-quantile (0 <= q <= 1) of the signed
// log-ratio distribution: the two mirrored halves are stitched into
// one ordered population (under-estimates descending from the most
// negative, then over-estimates ascending) and the rank is resolved in
// whichever half contains it. An empty snapshot returns 0.
func (s *ErrorHistogramSnapshot) Quantile(q float64) float64 {
	u := s.Under.bucketTotal()
	o := s.Over.bucketTotal()
	total := u + o
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total-1))
	if rank >= total {
		rank = total - 1
	}
	if rank < u {
		// Signed rank r maps to the (u-1-r)-th smallest magnitude: the
		// most negative value is the largest under-estimate magnitude.
		mag := s.Under.quantileAtRank(u-1-rank, u)
		return -float64(mag) / logRatioScale
	}
	mag := s.Over.quantileAtRank(rank-u, o)
	return float64(mag) / logRatioScale
}

// ErrorSummary condenses an error snapshot to the quantiles dashboards
// want. Quantiles are signed log-ratios; MaxAbs is the largest
// magnitude either way.
type ErrorSummary struct {
	Count      uint64
	UnderCount uint64
	OverCount  uint64
	P50        float64
	P90        float64
	P99        float64
	MaxAbs     float64
}

// Summarize computes the standard signed-quantile summary.
func (s *ErrorHistogramSnapshot) Summarize() ErrorSummary {
	maxAbs := s.Under.MaxNS
	if s.Over.MaxNS > maxAbs {
		maxAbs = s.Over.MaxNS
	}
	return ErrorSummary{
		Count:      s.Count(),
		UnderCount: s.UnderCount(),
		OverCount:  s.OverCount(),
		P50:        s.Quantile(0.50),
		P90:        s.Quantile(0.90),
		P99:        s.Quantile(0.99),
		MaxAbs:     float64(maxAbs) / logRatioScale,
	}
}
