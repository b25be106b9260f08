package feedback

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
)

// Worst-prediction exemplars: a bounded store of the top-K largest
// mispredictions seen by the loop, ranked by the magnitude of the
// signed log-ratio error |ln(predicted/actual)|. Where the error
// histograms say *how wrong* the model is in aggregate, the exemplars
// say *on what*: each keeps the plan's wire form, the per-node feature
// vectors the model saw, both sides of the comparison, and the serving
// request ID so the case can be joined with slow-request traces and
// request logs. Dumped at GET /debug/exemplars on the debug listener.

// ExemplarNode is one operator of an exemplar plan: the feature vector
// the model evaluated and its per-node prediction vs. measurement.
type ExemplarNode struct {
	Op        string    `json:"op"`
	Features  []float64 `json:"features"`
	Predicted float64   `json:"predicted"`
	Actual    float64   `json:"actual"`
}

// Exemplar is one captured worst-case misprediction.
type Exemplar struct {
	Schema       string  `json:"schema"`
	Resource     string  `json:"resource"`
	RequestID    string  `json:"request_id,omitempty"`
	ModelVersion uint64  `json:"model_version,omitempty"`
	Predicted    float64 `json:"predicted"`
	Actual       float64 `json:"actual"`
	// AbsLogRatio is the ranking key |ln(predicted/actual)|; ln 2 means
	// a factor-of-two miss either way.
	AbsLogRatio float64 `json:"abs_log_ratio"`
	UnixNanos   int64   `json:"unix_nanos"`
	// Plan is the observed plan in the wire JSON form POST /estimate
	// accepts, so a captured worst case replays directly.
	Plan json.RawMessage `json:"plan,omitempty"`
	// Nodes carries the per-operator features and contributions, when
	// the loop had a live model to decompose the prediction with.
	Nodes []ExemplarNode `json:"nodes,omitempty"`
}

// exemplarStore keeps the top-K exemplars by AbsLogRatio. Entries are
// stored as an unordered slice with a tracked minimum — K (exemplarK)
// is small, so a linear scan on eviction beats heap bookkeeping.
type exemplarStore struct {
	mu    sync.Mutex
	items []*Exemplar
}

// qualifies reports whether an error of the given magnitude would be
// kept right now — the cheap pre-check ingest runs before paying for
// plan encoding. Racy by design: a concurrent add may displace the
// slot, and offer re-checks under the lock.
func (s *exemplarStore) qualifies(abs float64) bool {
	if !(abs > 0) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items) < exemplarK || abs > s.minAbsLocked()
}

func (s *exemplarStore) minAbsLocked() float64 {
	min := math.Inf(1)
	for _, e := range s.items {
		if e.AbsLogRatio < min {
			min = e.AbsLogRatio
		}
	}
	return min
}

// offer inserts e when it ranks within the top K, evicting the current
// smallest magnitude when full.
func (s *exemplarStore) offer(e *Exemplar) {
	if !(e.AbsLogRatio > 0) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.items) < exemplarK {
		s.items = append(s.items, e)
		return
	}
	minIdx, minAbs := -1, math.Inf(1)
	for i, old := range s.items {
		if old.AbsLogRatio < minAbs {
			minIdx, minAbs = i, old.AbsLogRatio
		}
	}
	if e.AbsLogRatio > minAbs {
		s.items[minIdx] = e
	}
}

// snapshot returns copies of the kept exemplars, worst first.
func (s *exemplarStore) snapshot() []Exemplar {
	s.mu.Lock()
	out := make([]Exemplar, 0, len(s.items))
	for _, e := range s.items {
		out = append(out, *e)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].AbsLogRatio != out[j].AbsLogRatio {
			return out[i].AbsLogRatio > out[j].AbsLogRatio
		}
		return out[i].UnixNanos < out[j].UnixNanos
	})
	return out
}

// Exemplars returns the currently kept worst-prediction exemplars,
// largest error first. The slice and its entries are copies — safe to
// serialize without holding up ingest.
func (l *Loop) Exemplars() []Exemplar {
	return l.exemplars.snapshot()
}
