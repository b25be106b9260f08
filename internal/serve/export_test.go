package serve

import (
	"bytes"

	"repro/internal/obs"
)

// The halves of the request decode and of the response encode, exposed
// so the external test package can run them against each other, the
// schema scan PeekSchema tries first, the code→status table README's
// error table is held to, and the body pool so it can scribble over
// what the handlers hand back.
var (
	DecodeRequestStd = decodeRequestStd
	AppendWire       = appendWire
	CodeStatus       = codeStatus
	ScanSchema       = scanSchema
)

func MarshalStd(v any) ([]byte, error) { return appendStd(nil, v) }

const (
	BatchKeys     = batchKeys
	ObserveKeys   = observeKeys
	MaxBatchPlans = maxBatchPlans
)

// BadPlan returns the first batch plan the encoding/json path could not
// decode, and its index.
func (e *Envelope) BadPlan() (int, error) { return e.badPlan, e.badPlanErr }

// ScribblePooledBodies overwrites every byte of up to n request-body
// buffers waiting in the pool and puts them back.
func ScribblePooledBodies(n int) {
	bufs := make([]*bytes.Buffer, n)
	for i := range bufs {
		bufs[i] = bodyPool.Get().(*bytes.Buffer)
		b := bufs[i].Bytes()
		b = b[:cap(b)]
		for k := range b {
			b[k] = '#'
		}
	}
	for _, buf := range bufs {
		bodyPool.Put(buf)
	}
}

// ReplayCounts returns the POST /estimate requests the response cache
// answered and the ones it was asked and did not.
func (s *Service) ReplayCounts() (hits, misses uint64) {
	return s.replayHits.Load(), s.replayMisses.Load()
}

// StageLatencies returns the latency summary of one request stage for
// an endpoint ("estimate", "estimate_batch" or "estimate_stream"); the
// compute stages (queue_wait, cache_probe, predict) mean the same on
// all three. Zero summary when telemetry is disabled or the endpoint is
// unknown.
func (s *Service) StageLatencies(endpoint string, stage obs.Stage) obs.Summary {
	ep, ok := endpointIndex(endpoint)
	if !ok || s.tel == nil || stage >= obs.NumStages {
		return obs.Summary{}
	}
	snap := s.tel.stages[ep][stage].Snapshot()
	return snap.Summarize()
}

// RequestLatencies returns the end-to-end latency summary for an
// endpoint. Zero summary when telemetry is disabled.
func (s *Service) RequestLatencies(endpoint string) obs.Summary {
	ep, ok := endpointIndex(endpoint)
	if !ok || s.tel == nil {
		return obs.Summary{}
	}
	snap := s.tel.total[ep].Snapshot()
	return snap.Summarize()
}

func endpointIndex(endpoint string) (int, bool) {
	for i, n := range endpointNames[:] {
		if n == endpoint {
			return i, true
		}
	}
	return 0, false
}

// HoldSlots takes n of the service's compute slots, waiting for each,
// and returns the function that gives them back: while they are held,
// at most Workers−n requests compute.
func (s *Service) HoldSlots(n int) (release func()) {
	for range n {
		s.slots <- struct{}{}
	}
	return func() {
		for range n {
			<-s.slots
		}
	}
}
