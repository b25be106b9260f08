package stream

import "repro/internal/obs"

// Connected reports whether the client holds a live connection: false
// from the moment a loss lands until a redial installs the next one.
func (cl *Client) Connected() bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.conn != nil
}

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
