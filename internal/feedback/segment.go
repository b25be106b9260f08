package feedback

import (
	"bufio"
	"bytes"
	"errors"
	"io"
)

// Fleet-forwarding helpers over the observation log's CRC-framed
// segment codec: a forwarder tails a replica's segments and ships the
// raw bytes of whole records to the designated retrainer, whose
// ingest endpoint decodes them back into observations. The wire
// format IS the on-disk format — no re-encoding on either side.

// DecodeRecords reads CRC-framed observation records from r and calls
// fn for each decoded observation, returning how many fn accepted.
// io.EOF on a record boundary ends the scan cleanly; a torn or
// corrupt record, a CRC-valid one that does not decode, or an fn error
// stops it with the error, records before it already delivered.
func DecodeRecords(r io.Reader, fn func(*Observation) error) (int, error) {
	_, n, err := scanRecords(bufio.NewReaderSize(r, 64<<10), fn)
	return n, err
}

// ValidRecordPrefix returns the length in bytes and count of the
// longest prefix of b that consists of whole, intact records. It checks
// the framing only. A forwarder reading a live segment uses it to ship
// only completed records: the torn tail a concurrent append is still
// writing stays behind and is retried once the next poll sees it whole.
func ValidRecordPrefix(b []byte) (size int64, count int) {
	size, count, _ = scanRecords(bufio.NewReader(bytes.NewReader(b)), nil)
	return size, count
}

// scanRecords reads framed records from br up to a clean end of input
// or the first error. With fn nil it checks the framing only; otherwise
// it decodes each record and hands it to fn. It returns the bytes and
// count of the records read whole (and, with fn, decoded and accepted),
// and what stopped the scan: nil at a clean end, errCorrupt (wrapped)
// for a torn or damaged frame, the decode error of a CRC-valid record
// that does not decode, or fn's error.
func scanRecords(br *bufio.Reader, fn func(*Observation) error) (valid int64, n int, err error) {
	for {
		payload, size, err := readRecord(br)
		if errors.Is(err, io.EOF) {
			return valid, n, nil
		}
		if err != nil {
			return valid, n, err
		}
		if fn != nil {
			obs, err := DecodeObservation(payload)
			if err != nil {
				return valid, n, err
			}
			if err := fn(obs); err != nil {
				return valid, n, err
			}
		}
		valid += size
		n++
	}
}
