package cluster

import (
	"context"
	"errors"

	"repro/internal/stream"
)

// The router's stream surface is the replica's stream.Listener — same
// accept loop, connection lifecycle, idle reap and write timeout — with
// a handler that routes each estimate frame by schema and forwards it
// over the replica pools, so a streaming client gets fleet routing
// without a protocol change.

// StartStream starts the router's stream listener on addr
// (host:port, empty host for all interfaces) and returns the bound
// address.
func (rt *Router) StartStream(addr string) (string, error) {
	return rt.startStream(addr, stream.Options{})
}

// startStream is StartStream with the listener's timeouts open to the
// tests; the router itself runs the listener's defaults.
func (rt *Router) startStream(addr string, opts stream.Options) (string, error) {
	opts.Logger = rt.logger
	l, err := stream.Listen(addr, opts, &rt.framesPerWrite, rt.handleFrame)
	if err != nil {
		return "", err
	}
	rt.streamSrv = l
	return l.Addr(), nil
}

// StreamAddr returns the stream listener's bound address, "" before
// StartStream.
func (rt *Router) StreamAddr() string {
	if rt.streamSrv == nil {
		return ""
	}
	return rt.streamSrv.Addr()
}

// handleFrame answers one estimate frame: admission first, then the
// response cache on the read loop itself, and a miss forwarded on a
// goroutine of its own (bounded by the admission counters). Answers
// from here are queued, not sent — the listener sends them before the
// loop next blocks — and a queue error needs no handling: it means the
// writer is gone and the connection with it.
func (rt *Router) handleFrame(c *stream.Conn, f *stream.Frame) {
	ctr, ok := rt.admit(c.RemoteHost())
	if !ok {
		_ = c.Queue(stream.ErrorFrame(f.Seq, errShed.msg, errShed.code))
		return
	}
	if resp, ok := rt.cached(f.Body); ok {
		_ = c.Queue(&stream.Frame{Type: stream.FrameResponse, Seq: f.Seq, Body: resp})
		rt.release(ctr)
		return
	}
	// Forward concurrently: streams pipeline, and a frame parked on a
	// slow replica must not stall the frames behind it. The goroutine
	// outlives this call, so it gets its own copy of the body.
	seq, body := f.Seq, append([]byte(nil), f.Body...)
	c.Go(func() {
		defer rt.release(ctr)
		rt.forwardFrame(c, seq, body)
	})
}

// forwardFrame answers one cache miss through the replicas.
func (rt *Router) forwardFrame(c *stream.Conn, seq uint64, body []byte) {
	ctx := context.Background() // answered or shed by the router's own deadlines, not the client's
	resp, rerr := rt.forward(ctx, body)
	answer := &stream.Frame{Type: stream.FrameResponse, Seq: seq, Body: resp}
	if rerr != nil {
		answer = stream.ErrorFrame(seq, rerr.msg, rerr.code)
	}
	if err := c.Send(ctx, answer); err != nil && !errors.Is(err, stream.ErrConnLost) {
		_ = c.Send(ctx, stream.ErrorFrame(seq, "frame response: "+err.Error(), "internal"))
	}
}
