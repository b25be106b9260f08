package stream

// Fuzz target for the stream transport's CRC-framed codec: the frame
// reader must never panic on arbitrary bytes (torn headers, implausible
// lengths, CRC mismatches, unknown types), and every frame it yields
// must re-encode through AppendFrame to a byte-identical fixed point.
// Seed corpus lives in testdata/fuzz/FuzzStreamFrameDecode — same
// discipline as the feedback log's FuzzFrameDecode.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

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

// FuzzRequestDecode pins the envelope walker, as this transport adapts
// it, to encoding/json: for every input, either the fast path declines
// (and the stdlib fallback defines the behavior anyway), or its decoded
// Request must match stdlib's field for field. The reference decodes
// resources the way POST /estimate does — a string or an array, with
// [] distinct from absent.
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte(`{"schema":"tpch","resource":"cpu","plan":{"op":"scan"},"timeout_ms":250}`))
	f.Add([]byte(`{"resources":["cpu","mem"],"plan":[1,[2,"]"],{}]}`))
	f.Add([]byte(`{"resource":"c\u0070u","plan":null,"timeout_ms":-1}`))
	f.Add([]byte(`  {  "plan" : "quoted" , "unknown" : { "x" : [ ] } }  `))
	f.Add([]byte(`{"timeout_ms":007}`))
	f.Add([]byte(`{"schema":"a","schema":"b"}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"resources":"all","plan":{}}`))
	f.Add([]byte(`{"resources":[],"resource":"io","plan":{}}`))
	f.Add([]byte(`{"resources":null,"plan":{}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast Request
		if !fastDecodeRequest(body, &fast) {
			return // stdlib fallback owns this input by construction
		}
		var ref Request
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("fast path accepted input stdlib rejects: %q (%v)", body, err)
		}
		if fast.Schema != ref.Schema || fast.Resource != ref.Resource ||
			fast.TimeoutMS != ref.TimeoutMS ||
			!bytes.Equal(fast.Plan, ref.Plan) ||
			!reflect.DeepEqual(fast.Resources, ref.Resources) {
			t.Fatalf("fast path diverges on %q:\nfast %+v\nref  %+v", body, fast, ref)
		}
	})
}
