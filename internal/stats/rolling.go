package stats

import "sort"

// Rolling is a fixed-capacity sliding window over a stream of values
// with mean and quantile snapshots — the building block of the feedback
// subsystem's per-schema and per-operator error tracking. Once the
// window is full, each Add evicts the oldest value, so snapshots always
// describe the most recent Cap() observations.
//
// Rolling is not safe for concurrent use; callers synchronize around it
// (internal/feedback holds its windows under the loop mutex).
type Rolling struct {
	buf  []float64
	next int // ring write position once buf reaches capacity
	// scratch is Quantile's working copy of buf, kept between calls.
	scratch []float64
}

// NewRolling returns a window holding the most recent capacity values.
// Capacity must be positive.
func NewRolling(capacity int) *Rolling {
	if capacity <= 0 {
		panic("stats: NewRolling with non-positive capacity")
	}
	return &Rolling{buf: make([]float64, 0, capacity)}
}

// Add appends v, evicting the oldest value when the window is full.
func (r *Rolling) Add(v float64) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
}

// Len returns the number of values currently in the window.
func (r *Rolling) Len() int { return len(r.buf) }

// Cap returns the window capacity.
func (r *Rolling) Cap() int { return cap(r.buf) }

// Reset empties the window.
func (r *Rolling) Reset() {
	r.buf = r.buf[:0]
	r.next = 0
}

// Mean returns the mean of the windowed values, or 0 when empty.
func (r *Rolling) Mean() float64 { return Mean(r.buf) }

// Quantile returns the q-quantile (0 <= q <= 1) of the windowed values
// with linear interpolation, or 0 when the window is empty: by
// selection (SelectQuantile) over a copy of the window it keeps for the
// next call, bit for bit the value Quantile gives over the window
// sorted.
func (r *Rolling) Quantile(q float64) float64 {
	if len(r.buf) == 0 {
		return 0
	}
	r.scratch = append(r.scratch[:0], r.buf...)
	return SelectQuantile(r.scratch, q)
}

// Quantiles returns the quantiles at each of qs in one sort pass —
// cheaper than repeated Quantile calls when snapshotting several
// gauges. The result is parallel to qs; all zeros when empty.
func (r *Rolling) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(r.buf) == 0 {
		return out
	}
	sorted := append([]float64(nil), r.buf...)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = Quantile(sorted, q)
	}
	return out
}
