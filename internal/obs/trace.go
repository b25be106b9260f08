package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"
)

// Request tracing: every HTTP request gets an ID (client-supplied
// X-Request-ID or generated) and, when telemetry is on, a Trace that
// accumulates per-stage durations as the request moves through
// decode → slot wait → cache probe → predict → encode. Requests that
// exceed the slow threshold emit one structured slog record carrying
// the ID and the full stage breakdown — the "which stage ate the
// time" answer for individual outliers that histograms, being
// aggregates, cannot give.

// Stage identifies one leg of a request's journey through the serving
// path.
type Stage uint8

const (
	// StageDecode is request-body and plan decoding (HTTP layer).
	StageDecode Stage = iota
	// StageCoalesce is the time a streaming estimate waited in the
	// micro-batcher for its coalesced batch to fill or time out. Only
	// the streaming endpoint records it; HTTP requests dispatch
	// immediately.
	StageCoalesce
	// StageQueue is the wait for one of the service's Workers compute
	// slots; near zero unless that many requests are computing.
	StageQueue
	// StageCacheProbe is the prediction-cache lookup: one multi-get
	// over every operator of the request's plans.
	StageCacheProbe
	// StagePredict is the rest of the request's time in its slot:
	// feature extraction, model evaluation of the misses, the cache
	// fill and response assembly.
	StagePredict
	// StageEncode is response serialization (HTTP layer).
	StageEncode
	// NumStages sizes per-stage arrays.
	NumStages
)

// String returns the snake_case stage name used as the Prometheus
// stage label and in slow-trace records.
func (s Stage) String() string {
	switch s {
	case StageDecode:
		return "decode"
	case StageCoalesce:
		return "coalesce_wait"
	case StageQueue:
		return "queue_wait"
	case StageCacheProbe:
		return "cache_probe"
	case StagePredict:
		return "predict"
	case StageEncode:
		return "encode"
	}
	return fmt.Sprintf("stage%d", uint8(s))
}

// Stages lists all stages in pipeline order.
func Stages() [NumStages]Stage {
	return [NumStages]Stage{StageDecode, StageCoalesce, StageQueue, StageCacheProbe, StagePredict, StageEncode}
}

// Request IDs: an 8-hex-char random process prefix plus a 12-hex-char
// process-local sequence number. Unique across restarts and replicas
// (the prefix), ordered within a process (the counter), and far
// cheaper to mint than reading the entropy pool per request.
var (
	idPrefix [8]byte
	idSeq    atomic.Uint64
)

func init() {
	var raw [4]byte
	if _, err := rand.Read(raw[:]); err != nil {
		binary.LittleEndian.PutUint32(raw[:], uint32(time.Now().UnixNano()))
	}
	hex.Encode(idPrefix[:], raw[:])
}

// NewRequestID mints a request ID: 8 random hex chars identifying the
// process, a dash, and a 12-hex-digit sequence number.
func NewRequestID() string {
	var b [21]byte
	copy(b[:8], idPrefix[:])
	b[8] = '-'
	seq := idSeq.Add(1)
	const hexDigits = "0123456789abcdef"
	for i := 0; i < 12; i++ {
		b[20-i] = hexDigits[seq&0xf]
		seq >>= 4
	}
	return string(b[:])
}

// Trace accumulates one request's stage timings. A nil *Trace is valid
// everywhere and records nothing, so call sites are branch-free. A
// trace is not safe for concurrent use: every stage of a request,
// estimation included, runs on the goroutine that serves it, which is
// the one that records into its trace and reads it for the slow log.
type Trace struct {
	// ID is the request ID (propagated or generated).
	ID string
	// Endpoint names the request's endpoint ("estimate",
	// "estimate_batch", ...).
	Endpoint string
	start    time.Time
	spans    [NumStages]time.Duration
}

// NewTrace starts a trace for endpoint with the given request ID.
func NewTrace(endpoint, id string) *Trace {
	return &Trace{ID: id, Endpoint: endpoint, start: time.Now()}
}

// Record adds d to the stage's accumulated duration. Nil-safe.
func (t *Trace) Record(s Stage, d time.Duration) {
	if t != nil {
		t.spans[s] += d
	}
}

// Span returns the accumulated duration of one stage; 0 on nil.
func (t *Trace) Span(s Stage) time.Duration {
	if t == nil {
		return 0
	}
	return t.spans[s]
}

// LogSlow emits one structured slow-request record through logger when
// the trace's elapsed time is at or past threshold. It reports whether
// a record was emitted. threshold <= 0 disables slow tracing; a nil
// trace or logger never emits.
func (t *Trace) LogSlow(logger *slog.Logger, threshold time.Duration, extra ...slog.Attr) bool {
	if t == nil || logger == nil || threshold <= 0 {
		return false
	}
	elapsed := time.Since(t.start)
	if elapsed < threshold {
		return false
	}
	attrs := make([]slog.Attr, 0, 4+int(NumStages)+len(extra))
	attrs = append(attrs,
		slog.String("request_id", t.ID),
		slog.String("endpoint", t.Endpoint),
		slog.Duration("elapsed", elapsed),
		slog.Duration("threshold", threshold),
	)
	for _, s := range Stages() {
		if d := t.Span(s); d > 0 {
			attrs = append(attrs, slog.Duration(s.String(), d))
		}
	}
	attrs = append(attrs, extra...)
	logger.LogAttrs(context.Background(), slog.LevelWarn, "slow request", attrs...)
	return true
}

// traceKey keys the Trace in a context.
type traceKey struct{}

// WithTrace attaches t to ctx (no-op on nil trace).
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the request's trace, nil when absent.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
