package feedback

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/frame"
)

// TestRecordScanners feeds one corpus through the three callers of
// scanRecords: DecodeRecords (POST /observe/segment), ValidRecordPrefix
// (the forwarder's cut) and scanSegment (OpenLog's tail truncation and
// Replay). Each keeps its own contract over the same bytes: clean
// input, a torn tail, a bad CRC mid-stream, a CRC-valid record that
// does not decode, and an fn error, also one that wraps errCorrupt.
func TestRecordScanners(t *testing.T) {
	var recs [][]byte
	for _, o := range testObservations(t, 3) {
		rec, err := EncodeObservation(nil, o)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	r0, r1, r2 := recs[0], recs[1], recs[2]
	s0, s1, s2 := int64(len(r0)), int64(len(r1)), int64(len(r2))
	badCRC := slices.Clone(r1)
	badCRC[len(badCRC)-1] ^= 0xff
	undecodable := append(frame.Reserve(nil), 9) // codec version 9
	format.Seal(undecodable, 0)
	su := int64(len(undecodable))
	errStop := errors.New("stop")
	// An fn error is the caller's, never crash damage, even when it
	// wraps errCorrupt.
	errStopCorrupt := fmt.Errorf("stop: %w", errCorrupt)
	// errUndecodable stands for the error a CRC-valid record that does
	// not decode ends a scan with: not nil, and not framing damage.
	errUndecodable := errors.New("undecodable record")

	type result struct {
		valid int64
		n     int
		err   error
	}
	cases := []struct {
		name   string
		in     []byte
		stopAt int   // index of the record fn fails on; -1 for none
		fail   error // what fn fails with; errStop when nil
		decode result
		prefix result
		seg    result
		open   int64 // segment size OpenLog leaves; -1 when it fails
	}{
		{
			name: "clean", in: bytes.Join([][]byte{r0, r1, r2}, nil), stopAt: -1,
			decode: result{n: 3},
			prefix: result{valid: s0 + s1 + s2, n: 3},
			seg:    result{valid: s0 + s1 + s2, n: 3},
			open:   s0 + s1 + s2,
		},
		{
			name: "torn tail", in: bytes.Join([][]byte{r0, r1, r2[:len(r2)/2]}, nil), stopAt: -1,
			decode: result{n: 2, err: errCorrupt},
			prefix: result{valid: s0 + s1, n: 2},
			seg:    result{valid: s0 + s1, n: 2},
			open:   s0 + s1,
		},
		{
			name: "bad CRC mid-stream", in: bytes.Join([][]byte{r0, badCRC, r2}, nil), stopAt: -1,
			decode: result{n: 1, err: errCorrupt},
			prefix: result{valid: s0, n: 1},
			seg:    result{valid: s0, n: 1},
			open:   s0,
		},
		{
			name: "CRC-valid undecodable", in: bytes.Join([][]byte{r0, undecodable, r2}, nil), stopAt: -1,
			decode: result{n: 1, err: errUndecodable},
			prefix: result{valid: s0 + su + s2, n: 3},
			seg:    result{valid: s0, n: 1, err: errUndecodable},
			open:   -1,
		},
		{
			name: "fn error", in: bytes.Join([][]byte{r0, r1, r2}, nil), stopAt: 1,
			decode: result{n: 1, err: errStop},
			prefix: result{valid: s0 + s1 + s2, n: 3},
			seg:    result{valid: s0, n: 1, err: errStop},
			open:   s0 + s1 + s2,
		},
		{
			name: "fn error wrapping errCorrupt", in: bytes.Join([][]byte{r0, r1, r2}, nil), stopAt: 1, fail: errStopCorrupt,
			decode: result{n: 1, err: errStopCorrupt},
			prefix: result{valid: s0 + s1 + s2, n: 3},
			seg:    result{valid: s0, n: 1, err: errStopCorrupt},
			open:   s0 + s1 + s2,
		},
	}
	checkErr := func(t *testing.T, what string, got, want error) {
		t.Helper()
		switch {
		case want == nil:
			if got != nil {
				t.Fatalf("%s: %v, want no error", what, got)
			}
		case want == errUndecodable:
			if got == nil || errors.Is(got, errCorrupt) {
				t.Fatalf("%s: %v, want a decode error", what, got)
			}
		case !errors.Is(got, want):
			t.Fatalf("%s: %v, want %v", what, got, want)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fn := func() func(*Observation) error {
				i := 0
				return func(*Observation) error {
					if i == c.stopAt {
						if c.fail != nil {
							return c.fail
						}
						return errStop
					}
					i++
					return nil
				}
			}

			n, err := DecodeRecords(bytes.NewReader(c.in), fn())
			if n != c.decode.n {
				t.Fatalf("DecodeRecords delivered %d, want %d", n, c.decode.n)
			}
			checkErr(t, "DecodeRecords", err, c.decode.err)

			if size, count := ValidRecordPrefix(c.in); size != c.prefix.valid || count != c.prefix.n {
				t.Fatalf("ValidRecordPrefix = (%d, %d), want (%d, %d)", size, count, c.prefix.valid, c.prefix.n)
			}

			dir := t.TempDir()
			name := segmentName(logWriter, 1)
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, c.in, 0o644); err != nil {
				t.Fatal(err)
			}
			valid, n, err := scanSegment(path, fn())
			if valid != c.seg.valid || n != c.seg.n {
				t.Fatalf("scanSegment = (%d, %d), want (%d, %d)", valid, n, c.seg.valid, c.seg.n)
			}
			checkErr(t, "scanSegment", err, c.seg.err)
			if err != nil && !strings.Contains(err.Error(), name) {
				t.Fatalf("scanSegment error %q does not name %s", err, name)
			}

			l, err := OpenLog(LogOptions{Dir: dir})
			if c.open < 0 {
				if err == nil {
					l.Close()
					t.Fatal("OpenLog accepted a CRC-valid record that does not decode")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != c.open {
				t.Fatalf("OpenLog left the segment at %d bytes, want %d", fi.Size(), c.open)
			}
		})
	}
}
