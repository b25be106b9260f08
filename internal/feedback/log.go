package feedback

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Log is the segmented append-only observation log. Records are framed
// by the CRC codec (codec.go); segments rotate past a size threshold so
// old observations can eventually be archived or deleted wholesale.
// Writers are sharded: each shard owns an independent segment sequence
// and lock, so concurrent ingest scales past a single mutex (appends
// round-robin across shards; replay is ordered within a shard, not
// globally — consumers that care about order sort on UnixNanos).
//
// Crash safety: each record is written straight through to the OS in
// one write under the shard lock — no user-space buffering — so once
// Append returns, a process crash loses at most a record torn by the
// crash itself. Nothing here fsyncs: a power loss can cost the tail the
// OS had not written back. On open, the tail segment of every shard is
// scanned and truncated back to the last valid record boundary.
type Log struct {
	opts   LogOptions
	shards []*logShard
	next   atomic.Uint64 // round-robin append counter
}

// LogOptions configures an observation log.
type LogOptions struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentBytes rotates segments past this size (default 4 MiB).
	SegmentBytes int64
	// Shards is the number of independent writers (default 1). A
	// directory written with more shards than requested reopens with
	// the on-disk count, so no shard's segments are ever orphaned from
	// retention and replay ordering.
	Shards int
	// RetainSegments bounds each shard to this many segments, pruning
	// the oldest on rotation and on open — so disk use and startup
	// replay stay proportional to retention, not uptime (default 8;
	// negative disables pruning).
	RetainSegments int
}

type logShard struct {
	mu     sync.Mutex
	dir    string
	id     int
	seg    int // current segment index
	retain int // segments kept per shard; <= 0 keeps all
	f      *os.File
	size   int64
}

func segmentName(shard, seg int) string {
	return fmt.Sprintf("obs-%02d-%08d.seg", shard, seg)
}

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (shard, seg int, ok bool) {
	if _, err := fmt.Sscanf(name, "obs-%02d-%08d.seg", &shard, &seg); err != nil {
		return 0, 0, false
	}
	return shard, seg, name == segmentName(shard, seg)
}

// OpenLog opens (or creates) the log in opts.Dir, recovering each
// shard's tail segment: the segment is scanned record by record and
// truncated after the last one whose CRC checks out.
func OpenLog(opts LogOptions) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("feedback: observation log needs a directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.RetainSegments == 0 {
		opts.RetainSegments = 8
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	lastSeg := make(map[int]int) // shard -> max segment index on disk
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	for _, e := range entries {
		if shard, seg, ok := parseSegmentName(e.Name()); ok {
			if seg > lastSeg[shard] {
				lastSeg[shard] = seg
			}
			// Adopt shards beyond the requested count: leaving them
			// writer-less would orphan their segments from pruning while
			// replay kept reading them forever.
			if shard >= opts.Shards {
				opts.Shards = shard + 1
			}
		}
	}
	l := &Log{opts: opts, shards: make([]*logShard, opts.Shards)}
	for i := range l.shards {
		sh := &logShard{dir: opts.Dir, id: i, seg: lastSeg[i], retain: opts.RetainSegments}
		if sh.seg == 0 {
			sh.seg = 1
		}
		if err := sh.open(); err != nil {
			l.Close()
			return nil, err
		}
		sh.prune()
		l.shards[i] = sh
	}
	return l, nil
}

// prune removes segments older than the shard's retention bound. Best
// effort: a failed remove is retried on the next rotation. Called with
// the shard unshared (OpenLog) or under its lock (rotate).
func (s *logShard) prune() {
	if s.retain <= 0 {
		return
	}
	for k := s.seg - s.retain; k >= 1; k-- {
		if err := os.Remove(filepath.Join(s.dir, segmentName(s.id, k))); err != nil {
			// Segments are contiguous; the first missing one ends the
			// backlog.
			if os.IsNotExist(err) {
				return
			}
		}
	}
}

// open opens the shard's current segment for appending, truncating a
// corrupt tail first. Called with the shard unshared (OpenLog) or under
// its lock (rotate).
func (s *logShard) open() error {
	path := filepath.Join(s.dir, segmentName(s.id, s.seg))
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
	s.f = f
	s.size = valid
	return nil
}

// recordPool recycles Append's encode buffers: a record is written
// through to the OS before Append returns, so nothing outlives the call.
// A buffer an outsized record grew is not kept.
var recordPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRecord = 64 << 10

// Append encodes obs and writes it to the next shard in round-robin
// order, rotating that shard's segment when full.
func (l *Log) Append(obs *Observation) error {
	buf := recordPool.Get().(*[]byte)
	defer recordPool.Put(buf)
	rec, err := EncodeObservation((*buf)[:0], obs)
	if err != nil {
		return err
	}
	if cap(rec) <= maxPooledRecord {
		*buf = rec
	}
	s := l.shards[l.next.Add(1)%uint64(len(l.shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return ErrClosed
	}
	if s.size > 0 && s.size+int64(len(rec)) > l.opts.SegmentBytes {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	if _, err := s.f.Write(rec); err != nil {
		return fmt.Errorf("feedback: append: %w", err)
	}
	s.size += int64(len(rec))
	return nil
}

// rotate seals the current segment and starts the next. The next
// segment is opened before the current one is released, so a failed
// rotation (disk full, fd exhaustion) leaves the shard writing to the
// old segment — degraded past SegmentBytes, retried on the next append
// — rather than wedged. Caller holds the shard lock.
func (s *logShard) rotate() error {
	old, oldSize := s.f, s.size
	s.seg++
	if err := s.open(); err != nil {
		s.seg--
		s.f, s.size = old, oldSize
		return err
	}
	old.Close()
	s.prune()
	return nil
}

// Close closes every shard. Appends after Close fail with ErrClosed.
func (l *Log) Close() error {
	var first error
	for _, s := range l.shards {
		if s == nil {
			continue
		}
		s.mu.Lock()
		if s.f != nil {
			if err := s.f.Close(); err != nil && first == nil {
				first = err
			}
			s.f = nil
		}
		s.mu.Unlock()
	}
	return first
}

// Replay feeds every decodable observation on disk to fn, segment by
// segment in (shard, segment) order. A corrupt tail ends that shard's
// replay without error — that is the expected post-crash state. fn
// errors abort the replay. Returns the number of observations replayed.
func (l *Log) Replay(fn func(*Observation) error) (int, error) {
	return ReplayDir(l.opts.Dir, fn)
}

// ReplayDir replays an observation-log directory without opening it for
// writing — e.g. offline inspection of a live server's log.
func ReplayDir(dir string, fn func(*Observation) error) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("feedback: %w", err)
	}
	type segFile struct{ shard, seg int }
	var segs []segFile
	for _, e := range entries {
		if shard, seg, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segFile{shard, seg})
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].shard != segs[j].shard {
			return segs[i].shard < segs[j].shard
		}
		return segs[i].seg < segs[j].seg
	})
	total := 0
	for _, sf := range segs {
		_, n, err := scanSegment(filepath.Join(dir, segmentName(sf.shard, sf.seg)), fn)
		total += n
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return total, err
		}
	}
	return total, nil
}

// scanSegment reads records from path until EOF or the first corrupt
// record, invoking fn (when non-nil) per decoded observation. It
// returns the byte offset just past the last valid record — the
// truncation point for crash recovery — and the record count. Framing
// corruption is not an error (it is what a crash leaves behind); fn
// errors and I/O errors are.
func scanSegment(path string, fn func(*Observation) error) (valid int64, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 256<<10)
	for {
		payload, size, err := readRecord(br)
		if errors.Is(err, io.EOF) || errors.Is(err, errCorrupt) {
			return valid, n, nil
		}
		if err != nil {
			return valid, n, err
		}
		// A CRC-valid record that fails to decode is a writer bug, not
		// crash damage; stop rather than resync into garbage.
		obs, err := DecodeObservation(payload)
		if err != nil {
			return valid, n, fmt.Errorf("feedback: %s: %w", filepath.Base(path), err)
		}
		valid += size
		n++
		if fn != nil {
			if err := fn(obs); err != nil {
				return valid, n, err
			}
		}
	}
}
