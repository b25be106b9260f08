package serve

import "bytes"

// The halves of the request decode and of the response encode, exposed
// so the external test package can run them against each other, and
// the body pool so it can scribble over what the handlers hand back.
var (
	DecodeRequestStd = decodeRequestStd
	AppendWire       = appendWire
	MarshalStd       = marshalStd
)

const (
	BatchKeys      = batchKeys
	ObserveKeys    = observeKeys
	MaxBatchPlans  = maxBatchPlans
	MaxEstimateLen = maxEstimateBody
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
