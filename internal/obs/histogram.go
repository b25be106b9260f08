package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The latency histogram is the hot-path primitive of the telemetry
// layer: every request records a handful of stage durations, so an
// observation must cost one bucket computation (a couple of bit
// operations) plus a few uncontended atomic adds — no locks, no
// allocation, no floating point. Buckets are log-linear: durations are
// bucketed by power-of-two octave, each octave split into histSub
// linear sub-buckets, giving a constant relative error of at most
// 1/histSub (12.5%) across the whole range — the same layout HDR-style
// histograms and runtime/metrics use. Snapshots are plain value copies
// that can be merged (for aggregating workers or scrape deltas) and
// interrogated for quantiles.

const (
	// histMinExp..histMaxExp bound the octaves tracked exactly:
	// 2^10 ns ≈ 1 µs up to 2^34 ns ≈ 17.2 s. Everything below the
	// floor lands in the underflow bucket (sub-microsecond stage
	// timings are noise at serving granularity); everything above the
	// ceiling saturates into the overflow bucket but still counts
	// toward count/sum/max.
	histMinExp = 10
	histMaxExp = 34
	// histSub sub-buckets per octave: 8 keeps quantile interpolation
	// error under 12.5% of the value while the whole histogram stays
	// under 1.6 KiB of counters.
	histSub     = 8
	histSubBits = 3
	numBuckets  = (histMaxExp-histMinExp)*histSub + 2 // + underflow, overflow
)

// Histogram is a fixed-bucket, log-linear latency histogram safe for
// concurrent use without locks. The zero value is ready to use; a nil
// *Histogram ignores observations and snapshots as empty, so telemetry
// call sites never need nil checks of their own.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sumNS  atomic.Int64
	maxNS  atomic.Int64
}

// bucketIndex maps a duration in nanoseconds to its bucket: 0 is the
// underflow bucket, numBuckets-1 the overflow bucket.
func bucketIndex(ns int64) int {
	if ns < 1<<histMinExp {
		return 0
	}
	exp := bits.Len64(uint64(ns)) - 1 // floor(log2 ns)
	if exp >= histMaxExp {
		return numBuckets - 1
	}
	// Top histSubBits bits below the leading one select the linear
	// sub-bucket within the octave.
	sub := int(uint64(ns)>>(uint(exp)-histSubBits)) & (histSub - 1)
	return 1 + (exp-histMinExp)*histSub + sub
}

// bucketUpper returns the exclusive upper bound (ns) of bucket i, used
// for quantile interpolation and exposition.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 1 << histMinExp
	}
	if i >= numBuckets-1 {
		return int64(1) << 62
	}
	i--
	exp := histMinExp + i/histSub
	sub := i % histSub
	return (int64(1) << uint(exp)) + int64(sub+1)<<(uint(exp)-histSubBits)
}

// Observe records one duration. Negative durations are clamped to zero
// (a clock step mid-measurement must not corrupt the counters).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's counters:
// a plain value that can be merged, diffed against an earlier snapshot,
// and queried for quantiles without further synchronization.
type HistogramSnapshot struct {
	Count  uint64
	SumNS  int64
	MaxNS  int64
	counts [numBuckets]uint64
}

// Snapshot copies the counters. Concurrent observations may straddle
// the copy (a count visible without its bucket or vice versa); the
// skew is at most the handful of in-flight observations and quantile
// math tolerates it.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.SumNS = h.sumNS.Load()
	s.MaxNS = h.maxNS.Load()
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
	}
	return s
}

// Merge folds o into s — aggregation across workers, shards or
// processes is plain bucket-wise addition.
func (s *HistogramSnapshot) Merge(o *HistogramSnapshot) {
	s.Count += o.Count
	s.SumNS += o.SumNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	for i := range s.counts {
		s.counts[i] += o.counts[i]
	}
}

// Quantile returns the q-quantile (0 < q <= 1) as a duration,
// linearly interpolated within the containing bucket. An empty
// snapshot returns 0. The true max caps the answer, so p99/p100 of a
// sparse histogram never exceed an observed duration's bucket ceiling.
func (s *HistogramSnapshot) Quantile(q float64) time.Duration {
	total := s.bucketTotal()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	return s.quantileAtRank(uint64(q*float64(total-1)), total)
}

// bucketTotal sums the bucket counters — the population the quantile
// walk sees, which may lag Count by in-flight observations.
func (s *HistogramSnapshot) bucketTotal() uint64 {
	total := uint64(0)
	for i := range s.counts {
		total += s.counts[i]
	}
	return total
}

// quantileAtRank returns the value at the given 0-based rank of the
// bucketed population (total must be s.bucketTotal()). Split out of
// Quantile so the signed ErrorHistogram can address exact ranks when
// stitching its two mirrored halves into one ordered population.
func (s *HistogramSnapshot) quantileAtRank(rank, total uint64) time.Duration {
	if total == 0 {
		return 0
	}
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i := range s.counts {
		c := s.counts[i]
		if c == 0 {
			continue
		}
		if cum+c > rank {
			lower := int64(0)
			if i > 0 {
				lower = bucketUpper(i - 1)
			}
			upper := bucketUpper(i)
			if upper > s.MaxNS && s.MaxNS >= lower {
				upper = s.MaxNS
			}
			// Position of the target rank within this bucket.
			frac := float64(rank-cum+1) / float64(c)
			ns := float64(lower) + frac*float64(upper-lower)
			return time.Duration(ns)
		}
		cum += c
	}
	return time.Duration(s.MaxNS)
}

// Mean returns the mean observed duration, 0 when empty.
func (s *HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(s.Count))
}

// Max returns the exact maximum observed duration.
func (s *HistogramSnapshot) Max() time.Duration { return time.Duration(s.MaxNS) }

// Summary condenses a snapshot to the quantiles dashboards and logs
// want. All fields are durations; Count is the observation count.
type Summary struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summarize computes the standard quantile summary in one pass over
// the snapshot.
func (s *HistogramSnapshot) Summarize() Summary {
	return Summary{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Max:   s.Max(),
	}
}
