package stream

// Tests for the shared frame writer and the in-place frame reader: one
// write per burst, order kept, a bounded queue that blocks producers
// and a write timeout that releases them, and damaged frames refused
// by both readers before any byte of the body is handed out.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/respcache"
)

// TestReadFrameRejectsDamage: a frame whose bytes do not match its
// checksum, or whose framing is off, is ErrCorrupt from both readers —
// the in-place one included, which would otherwise hand out a body
// lying in a shared buffer unchecked.
func TestReadFrameRejectsDamage(t *testing.T) {
	good, err := AppendFrame(nil, &Frame{Type: FrameEstimate, Seq: 7, Body: []byte(`{"schema":"tpch"}`)})
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x01
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"intact", good, nil},
		{"body bit flipped", flip(len(good) - 2), ErrCorrupt},
		{"sequence bit flipped", flip(frameHeader + 3), ErrCorrupt},
		{"checksum bit flipped", flip(9), ErrCorrupt},
		{"magic bit flipped", flip(0), ErrCorrupt},
		{"torn payload", good[:len(good)-1], ErrCorrupt},
		{"torn header", good[:5], ErrCorrupt},
		{"nothing", nil, io.EOF},
	}
	for _, tc := range cases {
		_, copyErr := ReadFrame(bufio.NewReader(bytes.NewReader(tc.data)))
		var f Frame
		placeErr := ReadFrameInPlace(bufio.NewReader(bytes.NewReader(tc.data)), &f)
		for reader, err := range map[string]error{"ReadFrame": copyErr, "ReadFrameInPlace": placeErr} {
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: %s error = %v, want %v", tc.name, reader, err, tc.want)
			}
		}
		if tc.want == nil && (f.Seq != 7 || string(f.Body) != `{"schema":"tpch"}`) {
			t.Errorf("%s: ReadFrameInPlace decoded %+v", tc.name, f)
		}
	}
}

// readFrames decodes n frames from c.
func readFrames(t *testing.T, c net.Conn, n int) []*Frame {
	t.Helper()
	br := bufio.NewReader(c)
	out := make([]*Frame, n)
	for i := range out {
		f, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d of %d: %v", i, n, err)
		}
		out[i] = f
	}
	return out
}

// TestFrameWriterOneWritePerBurst: frames queued without a wake-up
// leave together, in order, in the single Write the Flush causes.
func TestFrameWriterOneWritePerBurst(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	var perWrite obs.IntHistogram
	w := NewFrameWriter(near, time.Second, &perWrite)
	done := make(chan error, 1)
	go func() { done <- w.Run() }()

	const n = 40
	for i := 0; i < n; i++ {
		if err := w.Queue(&Frame{Type: FrameResponse, Seq: uint64(i), Body: []byte(fmt.Sprintf(`{"i":%d}`, i))}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Buffered() == 0 {
		t.Fatal("queued frames are not buffered")
	}
	w.Flush()
	for i, f := range readFrames(t, far, n) {
		if f.Seq != uint64(i) || string(f.Body) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("frame %d arrived as seq %d body %s", i, f.Seq, f.Body)
		}
	}
	if s := perWrite.Snapshot(); s.Count != 1 || s.Sum != n {
		t.Fatalf("%d frames left in %d writes, want %d in 1", s.Sum, s.Count, n)
	}

	w.Close()
	near.Close()
	if err := <-done; !errors.Is(err, ErrConnLost) {
		t.Fatalf("Run returned %v after Close, want ErrConnLost", err)
	}
	if err := w.Send(context.Background(), &Frame{Type: FrameResponse}); !errors.Is(err, ErrConnLost) {
		t.Fatalf("Send after Close = %v, want ErrConnLost", err)
	}
}

// TestFrameWriterBoundsQueueAndTimesOut: against a peer that never
// reads, producers block once maxPending bytes are queued — the queue
// never holds more than the bound plus the frame that crossed it — and
// the write timeout then fails the writer, which releases every
// producer with ErrConnLost.
func TestFrameWriterBoundsQueueAndTimesOut(t *testing.T) {
	near, far := net.Pipe() // unbuffered: the first Write blocks until the deadline
	defer far.Close()
	defer near.Close()
	w := NewFrameWriter(near, 200*time.Millisecond, nil)
	done := make(chan error, 1)
	go func() { done <- w.Run() }()

	body := bytes.Repeat([]byte("x"), 1000)
	var sent atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := w.Send(context.Background(), &Frame{Type: FrameResponse, Body: body}); err != nil {
					errs <- err
					return
				}
				sent.Add(1)
			}
		}()
	}
	limit := maxPending + frameHeader + framePrefix + len(body)
	for stop := time.Now().Add(100 * time.Millisecond); time.Now().Before(stop); time.Sleep(time.Millisecond) {
		if n := w.Buffered(); n > limit {
			t.Fatalf("%d bytes queued, bound is %d", n, limit)
		}
	}
	// Run holds one batch in the blocked Write, the queue a second.
	if n := sent.Load() * int64(len(body)); n > 2*int64(limit) {
		t.Fatalf("producers got %d bytes past a peer that reads nothing", n)
	}
	wg.Wait() // hangs here if the timeout does not release the producers
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("blocked Send failed with %v, want ErrConnLost", err)
		}
	}
	if err := <-done; err == nil {
		t.Fatal("Run returned nil after a write timeout")
	}
}

// TestFrameWriterSendHonoursContext: a producer waiting for room in a
// full queue gives up when its own context is done, without waiting for
// the writer's timeout.
func TestFrameWriterSendHonoursContext(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	defer near.Close()
	w := NewFrameWriter(near, time.Minute, nil) // Run never started: nothing makes room
	f := &Frame{Type: FrameResponse, Body: bytes.Repeat([]byte("x"), 1000)}
	for w.Buffered() < maxPending {
		if err := w.Queue(f); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := w.Send(ctx, f); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Send on a full queue with a 10 ms deadline = %v, want DeadlineExceeded", err)
	}
}

// BenchmarkFrameWriter measures the writer under N concurrent
// producers of 400-byte answers over loopback TCP: ns per frame, and
// how many frames each Write carried.
func BenchmarkFrameWriter(b *testing.B) {
	for _, producers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("producers=%d", producers), func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			var received atomic.Int64
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				buf := make([]byte, ReadBufferSize)
				for {
					n, err := c.Read(buf)
					received.Add(int64(n))
					if err != nil {
						return
					}
				}
			}()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			var perWrite obs.IntHistogram
			w := NewFrameWriter(c, 30*time.Second, &perWrite)
			go func() { _ = w.Run() }()

			body := bytes.Repeat([]byte("r"), 400)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						if err := w.Send(context.Background(), &Frame{Type: FrameResponse, Seq: uint64(i), Body: body}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			// Timed to delivery: the last burst counts once the peer has it.
			want := int64(b.N) * int64(frameHeader+framePrefix+len(body))
			for deadline := time.Now().Add(10 * time.Second); received.Load() < want; time.Sleep(20 * time.Microsecond) {
				if time.Now().After(deadline) {
					b.Fatalf("peer received %d bytes, want %d", received.Load(), want)
				}
			}
			b.StopTimer()
			w.Close()
			c.Close()
			s := perWrite.Snapshot()
			b.ReportMetric(s.Mean(), "frames/write")
		})
	}
}

// TestCachedAnswerAlwaysFrames pins why sendResponse files an answer
// without asking whether a frame can carry it: the response cache
// refuses an entry long before the framer would.
func TestCachedAnswerAlwaysFrames(t *testing.T) {
	if !fits(make([]byte, respcache.MaxEntryBytes)) {
		t.Fatalf("respcache.MaxEntryBytes = %d does not fit a %d-byte frame", respcache.MaxEntryBytes, maxFrameSize)
	}
}
