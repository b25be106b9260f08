package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// IntHistogram is a lock-free histogram over small non-negative integer
// values (batch sizes, fill counts, queue lengths) with power-of-two
// buckets: bucket i counts values ≤ 2^i, up to 2^(intHistBuckets-1),
// with an overflow bucket past that. Same hot-path contract as
// Histogram: recording is a leading-zero count plus two uncontended
// atomic adds, nil receivers are no-ops, and all rendering work happens
// at scrape time.
type IntHistogram struct {
	buckets [intHistBuckets + 1]atomic.Uint64
	sum     atomic.Uint64
	count   atomic.Uint64
	max     atomic.Uint64
}

// intHistBuckets is the number of finite buckets: upper bounds
// 1, 2, 4, ..., 2^16. Streaming micro-batches cap well below that.
const intHistBuckets = 17

// intBucketIndex returns the finite bucket for v, or intHistBuckets for
// overflow.
func intBucketIndex(v uint64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(v - 1) // smallest i with v <= 2^i
	if i >= intHistBuckets {
		return intHistBuckets
	}
	return i
}

// intBucketUpper is the inclusive upper bound of finite bucket i.
func intBucketUpper(i int) uint64 { return uint64(1) << i }

// Observe records one value. Negative values clamp to zero. Nil-safe.
func (h *IntHistogram) Observe(v int) {
	if h == nil {
		return
	}
	u := uint64(0)
	if v > 0 {
		u = uint64(v)
	}
	h.buckets[intBucketIndex(u)].Add(1)
	h.sum.Add(u)
	h.count.Add(1)
	for {
		old := h.max.Load()
		if u <= old || h.max.CompareAndSwap(old, u) {
			return
		}
	}
}

// IntHistogramSnapshot is a point-in-time copy of an IntHistogram.
type IntHistogramSnapshot struct {
	Buckets [intHistBuckets + 1]uint64
	Sum     uint64
	Count   uint64
	MaxV    uint64
}

// Snapshot copies the histogram state. Nil-safe (zero snapshot).
func (h *IntHistogram) Snapshot() IntHistogramSnapshot {
	var s IntHistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	s.MaxV = h.max.Load()
	return s
}

// Mean is the average observed value, 0 when empty.
func (s *IntHistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound on the q-quantile (the bucket upper
// bound containing that rank), 0 when empty.
func (s *IntHistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count-1))
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen > rank {
			if i >= intHistBuckets {
				return s.MaxV
			}
			u := intBucketUpper(i)
			if u > s.MaxV {
				return s.MaxV
			}
			return u
		}
	}
	return s.MaxV
}

// IntHistogramSnapshot emits the snapshot as a Prometheus histogram:
// cumulative `_bucket` series with `le` labels at the power-of-two
// bounds (buckets past the observed maximum are collapsed into +Inf),
// plus `_sum` and `_count`.
func (e *Expo) IntHistogram(name, help, labels string, s *IntHistogramSnapshot) {
	f := e.family(name, "histogram", help)
	var cum uint64
	for i := 0; i < intHistBuckets; i++ {
		cum += s.Buckets[i]
		u := intBucketUpper(i)
		f.sample(name+"_bucket", mergeLabels(labels, fmt.Sprintf(`le="%d"`, u)), float64(cum))
		if u >= s.MaxV {
			break
		}
	}
	f.sample(name+"_bucket", mergeLabels(labels, `le="+Inf"`), float64(s.Count))
	f.sample(name+"_sum", labels, float64(s.Sum))
	f.sample(name+"_count", labels, float64(s.Count))
}
