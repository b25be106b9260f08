package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/feedback"
	"repro/internal/serve"
)

// ForwarderOptions configures a Forwarder.
type ForwarderOptions struct {
	// Dir is the replica's observation-log directory (feedback
	// Options.Dir) — the segments to tail. Required.
	Dir string
	// Target is the retrainer's HTTP base URL; segments POST to
	// Target/observe/segment. Required.
	Target string
	// Interval is the tail poll period (default 2s).
	Interval time.Duration
	// Logger receives forwarding failures. Nil discards.
	Logger *slog.Logger
}

// Forwarder ships a replica's observation-log segments to the fleet's
// designated retrainer. It tails the feedback log's segment files by
// byte offset, cuts each read at the last intact record boundary
// (feedback.ValidRecordPrefix — a torn tail is retried next pass once
// the writer completes it), and advances an offset only after the
// retrainer acknowledged the bytes, so a push that fails is retried
// and no observation is lost between polls. Records are forwarded as
// raw CRC-framed bytes: the retrainer re-validates every record, so a
// corrupt segment region is skipped there, not trusted here.
type Forwarder struct {
	opts    ForwarderOptions
	httpc   *http.Client
	logger  *slog.Logger
	offsets map[string]int64

	mu   sync.Mutex // serializes ForwardNow (ticker vs tests)
	quit chan struct{}
	wg   sync.WaitGroup
}

// NewForwarder starts a forwarder tailing opts.Dir into opts.Target.
func NewForwarder(opts ForwarderOptions) (*Forwarder, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("cluster: forwarder needs a segment directory")
	}
	if opts.Target == "" {
		return nil, fmt.Errorf("cluster: forwarder needs a target")
	}
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	f := &Forwarder{
		opts:    opts,
		httpc:   newHTTPClient(),
		logger:  opts.Logger,
		offsets: make(map[string]int64),
		quit:    make(chan struct{}),
	}
	f.wg.Add(1)
	go f.loop()
	return f, nil
}

// Close stops the tail loop. A push in flight completes first.
func (f *Forwarder) Close() {
	select {
	case <-f.quit:
		return
	default:
	}
	close(f.quit)
	f.wg.Wait()
}

func (f *Forwarder) loop() {
	defer f.wg.Done()
	t := time.NewTicker(f.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := f.ForwardNow(); err != nil {
				f.logger.Warn("observation forward failed", "error", err)
			}
		case <-f.quit:
			return
		}
	}
}

// ForwardNow runs one tail pass synchronously — the loop's body,
// exposed so tests and shutdown paths can drain deterministically.
// It returns the number of records acknowledged this pass; the first
// push failure stops the pass (the next one retries from the same
// offsets).
func (f *Forwarder) ForwardNow() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	segs, err := feedback.Segments(f.opts.Dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) { // no directory yet: nothing to forward
		return 0, err
	}
	present := make(map[string]bool, len(segs))
	total := 0
	for _, seg := range segs {
		present[seg] = true
		for {
			n, count, err := f.forwardFile(seg)
			total += count
			if err != nil {
				return total, err
			}
			if n == 0 {
				break
			}
		}
	}
	// Segments the feedback log pruned are gone for good; forget their
	// offsets so the map doesn't grow with the log's lifetime.
	for name := range f.offsets {
		if !present[name] {
			delete(f.offsets, name)
		}
	}
	return total, nil
}

// forwardFile pushes seg's unforwarded bytes, as many whole records as
// the retrainer's POST /observe/segment takes (serve.MaxBatchBody), and
// returns how many bytes were acknowledged. A push carries the bytes
// of one segment at most.
func (f *Forwarder) forwardFile(seg string) (int64, int, error) {
	offset := f.offsets[seg]
	fh, err := os.Open(seg)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil // pruned between listing and open
		}
		return 0, 0, err
	}
	defer fh.Close()
	if _, err := fh.Seek(offset, io.SeekStart); err != nil {
		return 0, 0, err
	}
	buf, err := io.ReadAll(io.LimitReader(fh, serve.MaxBatchBody))
	if err != nil {
		return 0, 0, err
	}
	size, count := feedback.ValidRecordPrefix(buf)
	if size == 0 {
		return 0, 0, nil // nothing intact yet (torn tail or no news)
	}
	status, _, err := readReply(f.httpc.Post(f.opts.Target+"/observe/segment",
		"application/octet-stream", bytes.NewReader(buf[:size])))
	if err != nil {
		return 0, 0, err
	}
	if status < 200 || status > 299 {
		return 0, 0, fmt.Errorf("cluster: forward %s: %d %s", filepath.Base(seg), status, http.StatusText(status))
	}
	f.offsets[seg] = offset + size
	return size, count, nil
}
