package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"testing/iotest"
	"time"
)

// The two formats in use, as internal/stream and internal/feedback
// declare them, each with a sentinel of its own standing in for the
// package's.
var (
	errStream   = errors.New("stream: corrupt frame")
	errFeedback = errors.New("feedback: corrupt log record")
	formats     = map[string]*Format{
		"stream RST1":   {Magic: 0x52535431, Min: 9, Max: 8 << 20, Corrupt: errStream},
		"feedback FBL1": {Magic: 0x46424C31, Min: 1, Max: 16 << 20, Corrupt: errFeedback},
	}
)

func seal(ft *Format, payload []byte) []byte {
	rec := append(Reserve(nil), payload...)
	ft.Seal(rec, 0)
	return rec
}

// TestHeaderDamage drives both formats, through both readers, over
// every way a header or the payload behind it can be wrong, and wants
// the format's own sentinel for each — and only a bare io.EOF for input
// that ends between records.
func TestHeaderDamage(t *testing.T) {
	for name, ft := range formats {
		payload := bytes.Repeat([]byte{0x5a}, 40)
		good := seal(ft, payload)
		edit := func(fn func(b []byte)) []byte {
			b := bytes.Clone(good)
			fn(b)
			return b
		}
		setLen := func(n int) []byte {
			return edit(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], uint32(n)) })
		}
		cases := []struct {
			name    string
			data    []byte
			corrupt bool // else: io.EOF when data is empty, success otherwise
		}{
			{"intact", good, false},
			{"clean EOF", nil, false},
			{"bad magic", edit(func(b []byte) { b[0] ^= 0x01 }), true},
			{"the other format's magic", edit(func(b []byte) { binary.LittleEndian.PutUint32(b, ft.Magic^0x52535431^0x46424C31) }), true},
			{"torn header", good[:HeaderSize-1], true},
			{"one byte of header", good[:1], true},
			{"length below min", seal(ft, payload[:ft.Min-1]), true},
			{"length above max", setLen(ft.Max + 1), true},
			{"length 2^32-1", setLen(1<<32 - 1), true},
			{"CRC flip", edit(func(b []byte) { b[8] ^= 0x80 }), true},
			{"payload flip", edit(func(b []byte) { b[len(b)-1] ^= 0x01 }), true},
			{"torn payload", good[:len(good)-1], true},
			{"no payload", good[:HeaderSize], true},
		}
		for _, tc := range cases {
			for reader, read := range map[string]func(*bufio.Reader) ([]byte, error){
				"Read": ft.Read, "ReadInPlace": ft.ReadInPlace,
			} {
				// 16 bytes of buffer send ReadInPlace through its fallback.
				for _, size := range []int{16, 4096} {
					got, err := read(bufio.NewReaderSize(bytes.NewReader(tc.data), size))
					switch {
					case tc.corrupt:
						if !errors.Is(err, ft.Corrupt) || errors.Is(err, io.EOF) {
							t.Errorf("%s, %s, %s/%d: error %v, want %v and not io.EOF", name, tc.name, reader, size, err, ft.Corrupt)
						}
						for other, o := range formats {
							if o != ft && errors.Is(err, o.Corrupt) {
								t.Errorf("%s, %s: error %v carries the sentinel of %s", name, tc.name, err, other)
							}
						}
					case len(tc.data) == 0:
						if err != io.EOF {
							t.Errorf("%s, %s, %s/%d: error %v, want a bare io.EOF", name, tc.name, reader, size, err)
						}
					default:
						if err != nil || !bytes.Equal(got, payload) {
							t.Errorf("%s, %s, %s/%d: payload %x, error %v", name, tc.name, reader, size, got, err)
						}
					}
				}
			}
		}
	}
}

// TestTransportCauseStaysVisible: a read that fails for the transport's
// own reasons — before a header or inside a record — is damage, and
// still says why.
func TestTransportCauseStaysVisible(t *testing.T) {
	ft := formats["stream RST1"]
	good := seal(ft, bytes.Repeat([]byte{1}, 20))
	for name, r := range map[string]io.Reader{
		"between records":  iotest.ErrReader(net.ErrClosed),
		"inside a header":  io.MultiReader(bytes.NewReader(good[:5]), iotest.ErrReader(net.ErrClosed)),
		"inside a payload": io.MultiReader(bytes.NewReader(good[:20]), iotest.ErrReader(net.ErrClosed)),
	} {
		_, err := ft.ReadInPlace(bufio.NewReader(r))
		if !errors.Is(err, errStream) || !errors.Is(err, net.ErrClosed) {
			t.Errorf("%s: error %v, want both the sentinel and net.ErrClosed", name, err)
		}
	}

	// A read deadline, from a real socket.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	if _, err := ft.Read(bufio.NewReader(c)); !errors.Is(err, errStream) || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("deadline: error %v, want both the sentinel and os.ErrDeadlineExceeded", err)
	}
}

// FuzzHeader: no input makes a reader panic, the two readers agree on
// every record of it, and a record they accept re-seals to the bytes it
// was read from.
func FuzzHeader(f *testing.F) {
	for _, ft := range formats {
		rec := seal(ft, []byte("a payload of some length"))
		f.Add(rec)
		f.Add(append(bytes.Clone(rec), rec...))
		f.Add(rec[:len(rec)-3])
		f.Add(rec[:7])
		flipped := bytes.Clone(rec)
		flipped[9] ^= 0xff
		f.Add(flipped)
		huge := bytes.Clone(rec)
		binary.LittleEndian.PutUint32(huge[4:], 1<<31-1)
		f.Add(huge)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, ft := range formats {
			for _, size := range []int{16, 64, 4096} {
				ref := bufio.NewReaderSize(bytes.NewReader(data), size)
				br := bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), size)
				for at := 0; ; {
					want, wantErr := ft.Read(ref)
					got, gotErr := ft.ReadInPlace(br)
					if (wantErr == io.EOF) != (gotErr == io.EOF) || errors.Is(wantErr, ft.Corrupt) != errors.Is(gotErr, ft.Corrupt) {
						t.Fatalf("%s, buffer %d, offset %d: Read error %v, ReadInPlace error %v", name, size, at, wantErr, gotErr)
					}
					if wantErr != nil {
						if wantErr != io.EOF && !errors.Is(wantErr, ft.Corrupt) {
							t.Fatalf("%s: error %v is neither io.EOF nor the sentinel", name, wantErr)
						}
						break
					}
					if !bytes.Equal(got, want) || len(want) < ft.Min || len(want) > ft.Max {
						t.Fatalf("%s, buffer %d, offset %d: Read %x, ReadInPlace %x", name, size, at, want, got)
					}
					end := at + HeaderSize + len(want)
					if resealed := seal(ft, want); !bytes.Equal(resealed, data[at:end]) {
						t.Fatalf("%s, offset %d: accepted %x, re-sealed %x", name, at, data[at:end], resealed)
					}
					at = end
				}
			}
		}
	})
}
