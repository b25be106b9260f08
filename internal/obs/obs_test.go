package obs

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBucketIndexMonotonic(t *testing.T) {
	last := -1
	for _, ns := range []int64{0, 1, 512, 1023, 1024, 1025, 2047, 2048, 1e6, 1e9, 17e9, 1 << 40} {
		i := bucketIndex(ns)
		if i < last {
			t.Fatalf("bucketIndex(%d)=%d below previous %d", ns, i, last)
		}
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d)=%d out of range", ns, i)
		}
		last = i
	}
}

func TestBucketBoundsContainValues(t *testing.T) {
	// Every value must fall strictly below its bucket's upper bound and
	// at or above the previous bucket's.
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 10000; trial++ {
		ns := int64(rng.Uint64() % (1 << 36))
		i := bucketIndex(ns)
		if i == numBuckets-1 {
			continue // overflow bucket is unbounded
		}
		if ns >= bucketUpper(i) {
			t.Fatalf("ns=%d in bucket %d but >= upper %d", ns, i, bucketUpper(i))
		}
		if i > 0 && ns < bucketUpper(i-1) {
			t.Fatalf("ns=%d in bucket %d but < lower %d", ns, i, bucketUpper(i-1))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// Uniform 1..10ms: p50 ≈ 5ms, p99 ≈ 10ms, within the 12.5%
	// relative bucket error.
	for i := 1; i <= 10000; i++ {
		h.Observe(time.Duration(1+i%10) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 10000 {
		t.Fatalf("count = %d", s.Count)
	}
	checkNear := func(q float64, want time.Duration) {
		got := s.Quantile(q)
		if math.Abs(float64(got-want)) > 0.25*float64(want) {
			t.Errorf("q%g = %v, want ≈ %v", q, got, want)
		}
	}
	checkNear(0.5, 5500*time.Microsecond)
	checkNear(0.99, 10*time.Millisecond)
	if s.Max() != 10*time.Millisecond {
		t.Errorf("max = %v, want exactly 10ms", s.Max())
	}
	if mean := s.Mean(); mean < 5*time.Millisecond || mean > 7*time.Millisecond {
		t.Errorf("mean = %v", mean)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Observe(time.Millisecond)
		b.Observe(time.Second)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(&sb)
	if sa.Count != 200 {
		t.Fatalf("merged count = %d", sa.Count)
	}
	if sa.Max() != time.Second {
		t.Fatalf("merged max = %v", sa.Max())
	}
	if p50 := sa.Quantile(0.5); p50 > 10*time.Millisecond {
		t.Fatalf("merged p50 = %v, want ~1ms side", p50)
	}
	if p99 := sa.Quantile(0.99); p99 < 500*time.Millisecond {
		t.Fatalf("merged p99 = %v, want ~1s side", p99)
	}
}

func TestHistogramNilAndEmpty(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatalf("nil histogram snapshot not empty: %+v", s.Summarize())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 7))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Uint64() % uint64(time.Second)))
			}
		}(uint64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var bucketSum uint64
	for _, c := range s.counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	var c atomic.Uint64
	c.Add(42)
	var h Histogram
	h.Observe(100 * time.Millisecond)
	r.Register(func(e *Expo) {
		e.Counter("test_requests_total", "Requests.", "", float64(c.Load()))
		e.Gauge("test_depth", "Depth.", Labels("shard", "3"), 7)
		snap := h.Snapshot()
		e.Summary("test_latency_seconds", "Latency.", Labels("endpoint", "estimate"), &snap)
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		"test_requests_total 42",
		`test_depth{shard="3"} 7`,
		"# TYPE test_latency_seconds summary",
		`test_latency_seconds{endpoint="estimate",quantile="0.5"}`,
		`test_latency_seconds{endpoint="estimate",quantile="0.99"}`,
		`test_latency_seconds_count{endpoint="estimate"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Parseable basics: no duplicate TYPE lines, every non-comment line
	// is "name[{labels}] value".
	if strings.Count(out, "# TYPE test_latency_seconds summary") != 1 {
		t.Errorf("duplicate TYPE header:\n%s", out)
	}

	// A collector emitting per object interleaves its families; the
	// renderer still writes each as one block under one header.
	r = NewRegistry()
	r.Register(func(e *Expo) {
		for _, shard := range []string{"0", "1"} {
			l := Labels("shard", shard)
			e.Counter("test_hits_total", "Hits.", l, 1)
			e.Gauge("test_ratio", "Ratio.", l, 0.5)
		}
	})
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP test_hits_total Hits.\n# TYPE test_hits_total counter\n" +
		"test_hits_total{shard=\"0\"} 1\ntest_hits_total{shard=\"1\"} 1\n" +
		"# HELP test_ratio Ratio.\n# TYPE test_ratio gauge\n" +
		"test_ratio{shard=\"0\"} 0.5\ntest_ratio{shard=\"1\"} 0.5\n"
	if got := buf.String(); got != want {
		t.Errorf("interleaved families not grouped:\n got: %q\nwant: %q", got, want)
	}
}

func TestLabelsEscapingAndOrder(t *testing.T) {
	got := Labels("b", `x"y`, "a", "line\nbreak")
	want := `{a="line\nbreak",b="x\"y"}`
	if got != want {
		t.Fatalf("Labels = %s, want %s", got, want)
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if len(id) != 21 || id[8] != '-' {
			t.Fatalf("malformed id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestTraceSlowLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := NewTrace("estimate", "req-1")
	tr.Record(StagePredict, 30*time.Millisecond)
	tr.Record(StageDecode, 5*time.Millisecond)
	time.Sleep(2 * time.Millisecond)
	if tr.LogSlow(logger, time.Minute) {
		t.Fatal("fast request logged as slow")
	}
	if !tr.LogSlow(logger, time.Millisecond) {
		t.Fatal("slow request not logged")
	}
	out := buf.String()
	for _, want := range []string{"slow request", "request_id=req-1", "endpoint=estimate", "predict=30ms", "decode=5ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("slow trace missing %q: %s", want, out)
		}
	}
	// Nil trace and disabled threshold must be inert.
	var nilTr *Trace
	if nilTr.LogSlow(logger, time.Nanosecond) || tr.LogSlow(logger, 0) {
		t.Fatal("nil trace or zero threshold emitted")
	}
}

func TestTraceContext(t *testing.T) {
	tr := NewTrace("estimate", "id")
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom = %v", got)
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom(empty) = %v", got)
	}
	if WithTrace(context.Background(), nil) != context.Background() {
		t.Fatal("WithTrace(nil) allocated a context")
	}
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Register(func(e *Expo) { e.Gauge("dbg_up", "", "", 1) })
	ds, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, path := range []string{"/debug/pprof/", "/metrics"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", ds.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestRuntimeCollector(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry()
	r.Register(RuntimeCollector("proc_"))
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{"uptime_seconds", "goroutines", "heap_alloc_bytes", "heap_sys_bytes",
		"alloc_bytes_total", "gc_cycles_total", "gc_last_pause_seconds", "gc_pause_seconds_total"} {
		if !strings.Contains(out, "\nproc_"+family+" ") {
			t.Errorf("runtime collector has no proc_%s sample:\n%s", family, out)
		}
	}
	if strings.Contains(out, "proc_goroutines 0\n") || strings.Contains(out, "proc_heap_alloc_bytes 0\n") {
		t.Fatalf("empty runtime read:\n%s", out)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		d := time.Microsecond
		for pb.Next() {
			h.Observe(d)
			d += 37 * time.Nanosecond
		}
	})
}
