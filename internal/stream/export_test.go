package stream

import (
	"net"

	"repro/internal/obs"
	"repro/internal/serve"
)

// ScribbleAfterHandle makes every listener overwrite a frame's body as
// soon as its handler has returned, until the returned func is called:
// whatever a handler kept of Frame.Body without copying it turns to
// '#'. Not for tests that run in parallel.
func ScribbleAfterHandle() (restore func()) {
	afterHandle = func(f *Frame) {
		for i := range f.Body {
			f.Body[i] = '#'
		}
	}
	return func() { afterHandle = nil }
}

// HoldDispatchSlots occupies every dispatch slot of s, so that nothing
// the batcher holds can dispatch, until the returned func frees them.
func (s *Server) HoldDispatchSlots() (release func()) {
	n := cap(s.batcher.slots)
	for i := 0; i < n; i++ {
		s.batcher.slots <- struct{}{}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-s.batcher.slots
		}
	}
}

// DispatchSlotsHeld counts the dispatch slots taken now.
func (s *Server) DispatchSlotsHeld() int { return len(s.batcher.slots) }

// Pending counts the keys with a live runner and the members waiting in
// their groups; members a full group tore off are no longer among them.
func (s *Server) Pending() (keys, members int) {
	b := s.batcher
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, g := range b.groups {
		members += len(g.members)
	}
	return len(b.groups), members
}

// BatchFill snapshots the plans-per-dispatch histogram.
func (s *Server) BatchFill() obs.IntHistogramSnapshot { return s.batchFill.Snapshot() }

// WalkerDecodes reports whether the envelope walker takes body as the
// server decodes it, rather than leaving it to encoding/json.
func WalkerDecodes(body []byte) bool {
	var env serve.Envelope
	return serve.DecodeEnvelope(body, serve.EstimateKeys, &env)
}

// SendResponse answers, as a dispatch would, a request for schema whose
// bytes were key, on a connection whose writer never runs: the answer
// gets as far as the queue.
func (s *Server) SendResponse(key, schema string, resp *serve.Response) {
	c := &Conn{w: NewFrameWriter(nil, 0, nil)}
	s.sendResponse(&pending{conn: c, key: key}, schema, resp)
}

// discardConn is a peer that takes every write at once.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// HandlerOnDiscard returns s's handler bound to a connection of its own
// whose answers go nowhere — a read loop's work on one frame without
// the socket on either side of it — and what stops that connection's
// writer.
func (s *Server) HandlerOnDiscard() (handle func(*Frame), stop func()) {
	c := &Conn{w: NewFrameWriter(discardConn{}, 0, nil)}
	go func() { _ = c.w.Run() }() // returns on stop
	return func(f *Frame) { s.handleEstimate(c, f) }, c.w.Close
}
