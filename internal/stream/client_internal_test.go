package stream

import (
	"bufio"
	"bytes"
	"fmt"
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
