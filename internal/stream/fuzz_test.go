package stream

// Fuzz target for the stream transport's CRC-framed codec: the frame
// reader must never panic on arbitrary bytes (torn headers, implausible
// lengths, CRC mismatches, unknown types), every frame it yields must
// re-encode through AppendFrame to a byte-identical fixed point, and
// the in-place reader must agree with it on every input — the same
// frames, the same rejection, the same io.EOF / ErrCorrupt class —
// whether a frame fits the read buffer, overflows it, or arrives a
// byte at a time. Seed corpus lives in
// testdata/fuzz/FuzzStreamFrameDecode — same discipline as the
// feedback log's FuzzFrameDecode. testdata/fuzz/FuzzRequestDecode is a
// corpus of request bodies, which FuzzEnvelopeDecode in internal/serve
// seeds from: request bodies are serve's to decode.

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// checkInPlaceAgrees reads data through ReadFrame and ReadFrameInPlace
// side by side, each behind its own bufio.Reader of the given size over
// a reader made by wrap.
func checkInPlaceAgrees(t *testing.T, data []byte, size int, wrap func(io.Reader) io.Reader) {
	t.Helper()
	ref := bufio.NewReaderSize(wrap(bytes.NewReader(data)), size)
	br := bufio.NewReaderSize(wrap(bytes.NewReader(data)), size)
	for i := 0; ; i++ {
		want, wantErr := ReadFrame(ref)
		var got Frame
		gotErr := ReadFrameInPlace(br, &got)
		if (wantErr == io.EOF) != (gotErr == io.EOF) || errors.Is(wantErr, ErrCorrupt) != errors.Is(gotErr, ErrCorrupt) {
			t.Fatalf("buffer %d, frame %d: ReadFrame error %v, ReadFrameInPlace error %v", size, i, wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if got.Type != want.Type || got.Seq != want.Seq || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("buffer %d, frame %d: ReadFrame %+v, ReadFrameInPlace %+v", size, i, want, got)
		}
	}
}

func FuzzStreamFrameDecode(f *testing.F) {
	// Seeds: a valid estimate frame, two back-to-back frames, an empty
	// body, a truncated tail, a flipped CRC byte, and framing garbage.
	est, err := AppendFrame(nil, &Frame{Type: FrameEstimate, Seq: 1,
		Body: []byte(`{"resource":"cpu","plan":{}}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(est)
	two, _ := AppendFrame(append([]byte(nil), est...), &Frame{Type: FrameResponse, Seq: 2,
		Body: []byte(`{"total":1.5}`)})
	f.Add(two)
	empty, _ := AppendFrame(nil, &Frame{Type: FrameError, Seq: 1<<64 - 1})
	f.Add(empty)
	f.Add(est[:len(est)-3])
	corrupt := append([]byte(nil), est...)
	corrupt[9] ^= 0xff // CRC byte
	f.Add(corrupt)
	f.Add([]byte("RST1 but not really"))
	f.Add([]byte{0x31, 0x54, 0x53, 0x52, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// 16 (bufio's minimum) is smaller than any frame, so every frame
		// takes the copying fallback; 64 splits the seeds between the two
		// paths; 4096 holds them whole.
		for _, size := range []int{16, 64, 4096} {
			checkInPlaceAgrees(t, data, size, func(r io.Reader) io.Reader { return r })
			checkInPlaceAgrees(t, data, size, iotest.OneByteReader)
		}

		br := bufio.NewReader(bytes.NewReader(data))
		for {
			fr, err := ReadFrame(br) // must never panic
			if err != nil {
				break // io.EOF (clean boundary) or ErrCorrupt
			}
			switch fr.Type {
			case FrameEstimate, FrameResponse, FrameError:
			default:
				t.Fatalf("decoded frame with invalid type %d", fr.Type)
			}
			// Decoded frames re-encode to a byte-identical fixed point.
			enc, err := AppendFrame(nil, fr)
			if err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			fr2, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
			if err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			enc2, err := AppendFrame(nil, fr2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatal("frame encoding is not a fixed point")
			}
		}
	})
}
