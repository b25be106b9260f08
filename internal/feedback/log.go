package feedback

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Log is the segmented append-only observation log. Records are framed
// by the CRC codec (codec.go); segments rotate past segmentBytes and
// all but the newest retainSegments are pruned, so disk use and startup
// replay stay proportional to retention, not uptime. One
// writer appends, under one lock, to segments named obs-00-%08d.seg —
// the names existing directories already hold. The 00 is a writer
// index from when the log had several; replay reads every writer's
// segments, so such a directory still replays whole.
//
// Crash safety: each record is written straight through to the OS in
// one write under the lock — no user-space buffering — so once Append
// returns, a process crash loses at most a record torn by the crash
// itself. Nothing here fsyncs: a power loss can cost the tail the OS
// had not written back. On open, the tail segment is scanned and
// truncated back to the last valid record boundary.
type Log struct {
	opts LogOptions

	mu   sync.Mutex
	seg  int // current segment index
	f    *os.File
	size int64
}

// LogOptions configures an observation log.
type LogOptions struct {
	// Dir holds the segment files; created if missing.
	Dir string
}

const (
	// logWriter is the writer index in every segment name this log
	// writes.
	logWriter = 0
	// segmentBytes rotates a segment once the next record would take it
	// past this size.
	segmentBytes = 4 << 20
	// retainSegments bounds the log to this many segments, pruning the
	// oldest on rotation and on open.
	retainSegments = 8
)

func segmentName(writer, seg int) string {
	return fmt.Sprintf("obs-%02d-%08d.seg", writer, seg)
}

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (writer, seg int, ok bool) {
	if _, err := fmt.Sscanf(name, "obs-%02d-%08d.seg", &writer, &seg); err != nil {
		return 0, 0, false
	}
	return writer, seg, name == segmentName(writer, seg)
}

// Segments lists the paths of dir's observation-log segments in replay
// order: by writer index, then by segment index — the order of their
// fixed-width names. Files not named as the log names its segments are
// left out.
func Segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if _, _, ok := parseSegmentName(e.Name()); ok {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	return paths, nil
}

// OpenLog opens (or creates) the log in opts.Dir, recovering the tail
// segment: it is scanned record by record and truncated after the last
// one whose CRC checks out.
func OpenLog(opts LogOptions) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("feedback: observation log needs a directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	segs, err := Segments(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opts: opts, seg: 1}
	for _, path := range segs {
		if writer, seg, _ := parseSegmentName(filepath.Base(path)); writer == logWriter && seg > l.seg {
			l.seg = seg
		}
	}
	if err := l.open(); err != nil {
		return nil, err
	}
	l.prune()
	return l, nil
}

// prune removes segments older than the retention bound. Best effort: a
// failed remove is retried on the next rotation. Called with the log
// unshared (OpenLog) or under its lock (rotate).
func (l *Log) prune() {
	for k := l.seg - retainSegments; k >= 1; k-- {
		if err := os.Remove(filepath.Join(l.opts.Dir, segmentName(logWriter, k))); err != nil {
			// Segments are contiguous; the first missing one ends the
			// backlog.
			if os.IsNotExist(err) {
				return
			}
		}
	}
}

// open opens the current segment for appending, truncating a corrupt
// tail first. Called with the log unshared (OpenLog) or under its lock
// (rotate).
func (l *Log) open() error {
	path := filepath.Join(l.opts.Dir, segmentName(logWriter, l.seg))
	valid, _, scanErr := scanSegment(path, nil)
	if scanErr != nil && !errors.Is(scanErr, os.ErrNotExist) {
		return scanErr
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return fmt.Errorf("feedback: truncate corrupt tail of %s: %w", path, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("feedback: %w", err)
	}
	l.f = f
	l.size = valid
	return nil
}

// recordPool recycles Append's encode buffers: a record is written
// through to the OS before Append returns, so nothing outlives the call.
// A buffer an outsized record grew is not kept.
var recordPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRecord = 64 << 10

// Append encodes obs and writes it to the current segment, rotating it
// first when full.
func (l *Log) Append(obs *Observation) error { return l.appendWire(obs, nil) }

// appendWire is Append recording wire, when not nil, as the plan's bytes
// (see encodeObservation). wire is copied into the record and not kept.
func (l *Log) appendWire(obs *Observation, wire []byte) error {
	buf := recordPool.Get().(*[]byte)
	defer recordPool.Put(buf)
	rec, err := encodeObservation((*buf)[:0], obs, wire)
	if err != nil {
		return err
	}
	if cap(rec) <= maxPooledRecord {
		*buf = rec
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	if l.size > 0 && l.size+int64(len(rec)) > segmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(rec); err != nil {
		return fmt.Errorf("feedback: append: %w", err)
	}
	l.size += int64(len(rec))
	return nil
}

// rotate seals the current segment and starts the next. The next
// segment is opened before the current one is released, so a failed
// rotation (disk full, fd exhaustion) leaves the log writing to the old
// segment — degraded past segmentBytes, retried on the next append —
// rather than wedged. Caller holds the lock.
func (l *Log) rotate() error {
	old, oldSize := l.f, l.size
	l.seg++
	if err := l.open(); err != nil {
		l.seg--
		l.f, l.size = old, oldSize
		return err
	}
	old.Close()
	l.prune()
	return nil
}

// Close closes the current segment. Appends after Close fail with
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Replay feeds every decodable observation on disk to fn, segment by
// segment in (writer, segment) order. A corrupt tail ends that segment's
// replay without error — that is the expected post-crash state. fn
// errors abort the replay. Returns the number of observations replayed.
func (l *Log) Replay(fn func(*Observation) error) (int, error) {
	return ReplayDir(l.opts.Dir, fn)
}

// ReplayDir replays an observation-log directory without opening it for
// writing — e.g. offline inspection of a live server's log.
func ReplayDir(dir string, fn func(*Observation) error) (int, error) {
	segs, err := Segments(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, path := range segs {
		_, n, err := scanSegment(path, fn)
		total += n
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return total, err
		}
	}
	return total, nil
}

// scanSegment scans the segment at path (see scanRecords), decoding
// every record and handing each to fn when fn is non-nil. It returns
// the byte offset just past the last valid record — the truncation
// point for crash recovery — and the record count. A torn or damaged
// frame ends the segment without error: it is what a crash leaves
// behind. A CRC-valid record that does not decode is a writer bug, not
// crash damage, and fails the scan rather than resync into garbage; so
// does an fn error. Either error names the file.
func scanSegment(path string, fn func(*Observation) error) (valid int64, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	// fn's own error is never crash damage, whatever it wraps; only
	// scanRecords' other errors are told apart by errCorrupt.
	var fnErr error
	valid, n, err = scanRecords(bufio.NewReaderSize(f, 256<<10), func(o *Observation) error {
		if fn != nil {
			fnErr = fn(o)
		}
		return fnErr
	})
	if err != nil && (fnErr != nil || !errors.Is(err, errCorrupt)) {
		return valid, n, fmt.Errorf("feedback: %s: %w", filepath.Base(path), err)
	}
	return valid, n, nil
}
