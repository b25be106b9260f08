package stream

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// maxPending bounds the bytes a FrameWriter holds for a peer that is
// not reading: a producer that finds this much already queued blocks
// until the writer goroutine has taken it, or the connection dies.
const maxPending = 256 << 10

// yieldBelow is the batch size under which Run steps aside once before
// writing (gRPC-go's loopy-writer rule): a wake-up that finds a frame
// or two queued has usually overtaken a producer that is not done — a
// dispatch fanning out its answers, callers pipelining requests — and
// one trip through the scheduler lets the rest of the burst in. It is
// a yield, not a wait: with nothing else runnable it returns at once.
const yieldBelow = 2 << 10

// FrameWriter is the write half of a stream connection; every
// Listener connection and the client send through one.
// Producers encode frames straight into a pending buffer under a
// mutex. One goroutine (Run) swaps that buffer for a spare and hands
// everything queued since its last write to the socket in a single
// Write, so a burst of answers costs one syscall however many
// goroutines produced it. Frames leave in the order they were
// appended; matching answers to requests is the sequence ID's job.
type FrameWriter struct {
	c        net.Conn
	timeout  time.Duration
	perWrite *obs.IntHistogram

	mu      sync.Mutex
	ready   sync.Cond // Run waits for kick or err
	space   sync.Cond // producers wait for len(pending) < maxPending or err
	pending []byte
	frames  int  // in pending
	kick    bool // a producer asked for pending to be written
	err     error
	// full is len(pending) >= maxPending, written under mu: a producer
	// that holds its own lock against every other producer can read it
	// without this one.
	full atomic.Bool
}

// NewFrameWriter returns a writer for c. timeout bounds one Write: a
// peer that stops reading is torn down when it fires, which is also
// what releases producers blocked on the full queue. perWrite, when
// non-nil, observes the frames each Write carried.
func NewFrameWriter(c net.Conn, timeout time.Duration, perWrite *obs.IntHistogram) *FrameWriter {
	w := &FrameWriter{c: c, timeout: timeout, perWrite: perWrite}
	w.ready.L, w.space.L = &w.mu, &w.mu
	return w
}

// Send queues f and wakes the writer goroutine. While the queue is full
// it blocks, until ctx is done at the latest; once the writer is closed
// it fails with ErrConnLost.
func (w *FrameWriter) Send(ctx context.Context, f *Frame) error { return w.append(ctx, f, true) }

// Queue is Send without the wake-up: the frame leaves with the next
// Send or Flush. For a producer that answers several requests in a row
// and knows when it is done — the frames go out together.
func (w *FrameWriter) Queue(f *Frame) error { return w.append(context.Background(), f, false) }

// TrySend is Send that never waits: with the queue at its bound it
// fails with ErrQueueFull. For a producer that must not block, as a
// read loop handing on another connection's answer.
func (w *FrameWriter) TrySend(f *Frame) error { return w.append(nil, f, true) }

// ErrQueueFull is TrySend's and Client.Start's refusal: the
// connection's write queue is at its bound.
var ErrQueueFull = errors.New("stream: write queue full")

// append queues f, waking the writer goroutine if wake is set. While
// the queue is full it waits for room until ctx is done; a nil ctx
// does not wait but fails with ErrQueueFull.
func (w *FrameWriter) append(ctx context.Context, f *Frame, wake bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ctx != nil {
		if err := w.roomLocked(ctx); err != nil {
			return err
		}
	} else if len(w.pending) >= maxPending && w.err == nil {
		w.kick = true // the room is the writer goroutine's to make
		w.ready.Signal()
		return ErrQueueFull
	}
	if w.err != nil {
		return w.err
	}
	buf, err := AppendFrame(w.pending, f)
	if err != nil {
		return err
	}
	w.pending = buf
	w.frames++
	w.full.Store(len(w.pending) >= maxPending)
	if wake {
		w.kick = true
		w.ready.Signal()
	}
	return nil
}

// roomLocked waits, under mu, until the queue is under its bound or
// the writer has failed, giving up once ctx is done.
func (w *FrameWriter) roomLocked(ctx context.Context) error {
	if len(w.pending) >= maxPending && w.err == nil && ctx.Done() != nil {
		// A caller that may give up while waiting for room: its
		// cancellation has to reach the Wait below.
		defer context.AfterFunc(ctx, func() {
			w.mu.Lock()
			w.space.Broadcast()
			w.mu.Unlock()
		})()
	}
	for len(w.pending) >= maxPending && w.err == nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Only the writer goroutine makes room, so it must run whether
		// or not this producer meant to wake it.
		w.kick = true
		w.ready.Signal()
		w.space.Wait()
	}
	return nil
}

// awaitRoom waits until the queue is under its bound, failing once ctx
// is done or the writer has failed.
func (w *FrameWriter) awaitRoom(ctx context.Context) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.roomLocked(ctx); err != nil {
		return err
	}
	return w.err
}

// Flush wakes the writer goroutine if frames are queued.
func (w *FrameWriter) Flush() {
	w.mu.Lock()
	if len(w.pending) > 0 {
		w.kick = true
		w.ready.Signal()
	}
	w.mu.Unlock()
}

// Buffered returns the bytes queued and not yet taken by Run.
func (w *FrameWriter) Buffered() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// Run writes queued frames to the connection until a Write fails or
// Close is called, and returns why it stopped. The caller closes the
// connection.
func (w *FrameWriter) Run() error {
	var spare []byte
	for {
		w.mu.Lock()
		for !w.kick && w.err == nil {
			w.ready.Wait()
		}
		if w.err != nil {
			w.mu.Unlock()
			return w.err
		}
		if len(w.pending) < yieldBelow {
			w.mu.Unlock()
			runtime.Gosched()
			w.mu.Lock()
		}
		buf, n := w.pending, w.frames
		w.pending, w.frames, w.kick = spare[:0], 0, false
		w.full.Store(false)
		w.space.Broadcast()
		w.mu.Unlock()

		if w.timeout > 0 {
			_ = w.c.SetWriteDeadline(time.Now().Add(w.timeout))
		}
		w.perWrite.Observe(n) // before the peer can have the bytes, like the server's response count
		if _, err := w.c.Write(buf); err != nil {
			w.fail(err)
			return err
		}
		if spare = buf; cap(spare) > 2*maxPending {
			spare = nil // one oversized frame must not pin its buffer for the connection's life
		}
	}
}

// Close stops Run and fails every blocked and later Send.
func (w *FrameWriter) Close() { w.fail(net.ErrClosed) }

func (w *FrameWriter) fail(cause error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("%w: %w", ErrConnLost, cause)
		w.ready.Signal()
		w.space.Broadcast()
	}
	w.mu.Unlock()
}
