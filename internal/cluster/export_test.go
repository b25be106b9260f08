package cluster

// Hooks for the external tests (package cluster_test), which own the
// in-process replica fixtures.

// Admit takes one admission slot for client, as a request would.
func (rt *Router) Admit(client string) (release func(), ok bool) { return rt.admit(client) }

// StreamQueued returns, for every open connection of the stream
// listener, the answer bytes queued for it and not yet handed to the
// socket.
func (rt *Router) StreamQueued() []int {
	sp := rt.streamSrv
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]int, 0, len(sp.conns))
	for c := range sp.conns {
		out = append(out, c.w.Buffered())
	}
	return out
}
