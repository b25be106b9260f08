package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestAnswerBurstOneAllocation reads a burst of answers as the client's
// read loop does. Every body is what was sent and owns exactly its
// length, so appending to one leaves the others intact, and the whole
// burst costs one allocation.
func TestAnswerBurstOneAllocation(t *testing.T) {
	var wire []byte
	var want [16][]byte
	for i := range want {
		want[i] = fmt.Appendf(nil, `{"total":%d.5,"pad":"%s"}`, i, strings.Repeat("x", 7*i))
		var err error
		if wire, err = AppendFrame(wire, &Frame{Type: FrameResponse, Seq: uint64(i), Body: want[i]}); err != nil {
			t.Fatal(err)
		}
	}
	src := bytes.NewReader(wire)
	a := answerReader{br: bufio.NewReaderSize(src, ReadBufferSize)}
	var got [16][]byte
	burst := func() {
		src.Reset(wire)
		a.br.Reset(src)
		a.arena = nil
		for i := range got {
			f, err := a.next()
			if err != nil {
				t.Fatal(err)
			}
			got[i] = f.Body
		}
	}
	if raceEnabled {
		t.Log("allocation count not checked: the race detector allocates on its own account")
	} else if n := testing.AllocsPerRun(100, burst); n > 1 {
		t.Errorf("a burst of %d answers allocates %v times, want at most 1", len(got), n)
	}

	burst()
	for i := range got {
		if !bytes.Equal(got[i], want[i]) || cap(got[i]) != len(got[i]) {
			t.Fatalf("answer %d: %q with cap %d, want %q with cap %d", i, got[i], cap(got[i]), want[i], len(want[i]))
		}
	}
	for i := range got {
		_ = append(got[i], strings.Repeat("#", 64)...)
		for j := range got {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("appending to answer %d changed answer %d to %q", i, j, got[j])
			}
		}
	}
}

// TestAnswerOverReadBuffer: an answer too big for the read buffer
// arrives in an allocation of its own and is handed on as it is,
// without a second copy or an arena.
func TestAnswerOverReadBuffer(t *testing.T) {
	body := []byte(`{"total":1.5,"pad":"` + strings.Repeat("x", 256) + `"}`)
	wire, err := AppendFrame(nil, &Frame{Type: FrameResponse, Seq: 7, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	a := answerReader{br: bufio.NewReaderSize(bytes.NewReader(wire), 64)}
	f, err := a.next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 7 || !bytes.Equal(f.Body, body) || cap(f.Body) != len(f.Body) {
		t.Fatalf("read seq %d body %q with cap %d, want seq 7 body %q with cap %d", f.Seq, f.Body, cap(f.Body), body, len(body))
	}
	if a.arena != nil {
		t.Fatalf("an answer over the read buffer made a %d-byte arena", cap(a.arena))
	}
}

// chunkReader returns one chunk per Read: one socket read each.
type chunkReader [][]byte

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(*r) == 0 {
		return 0, io.EOF
	}
	n := copy(p, (*r)[0])
	(*r)[0] = (*r)[0][n:]
	if len((*r)[0]) == 0 {
		*r = (*r)[1:]
	}
	return n, nil
}

// TestAnswerBurstsFollowSocketReads: a burst is the whole answers one
// socket read brought, a frame split across two reads starting the
// second, and every answer is copied out, so later reads into the same
// buffer leave it intact — an answer alone in its read too.
func TestAnswerBurstsFollowSocketReads(t *testing.T) {
	var wire [3][]byte
	var want [3][]byte
	for i := range want {
		want[i] = fmt.Appendf(nil, `{"total":%d.5}`, i)
		var err error
		if wire[i], err = AppendFrame(nil, &Frame{Type: FrameResponse, Seq: uint64(i), Body: want[i]}); err != nil {
			t.Fatal(err)
		}
	}
	half := len(wire[1]) / 2
	for _, c := range []struct {
		name   string
		reads  chunkReader
		bursts [3]int
	}{
		{"one answer per read", chunkReader{wire[0], wire[1], wire[2]}, [3]int{1, 1, 1}},
		{"an answer split across reads", chunkReader{
			append(bytes.Clone(wire[0]), wire[1][:half]...),
			append(bytes.Clone(wire[1][half:]), wire[2]...),
		}, [3]int{1, 2, 0}},
	} {
		a := answerReader{br: bufio.NewReaderSize(&c.reads, ReadBufferSize)}
		var got [3][]byte
		for i := range got {
			f, err := a.next()
			if err != nil {
				t.Fatal(err)
			}
			if a.burst != c.bursts[i] {
				t.Fatalf("%s: answer %d counted %d answers in its burst, want %d", c.name, i, a.burst, c.bursts[i])
			}
			got[i] = f.Body
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: answer %d is %q after later reads, want %q", c.name, i, got[i], want[i])
			}
		}
	}
}
