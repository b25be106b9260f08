package feedback

import (
	"sync/atomic"
	"testing"

	"repro/internal/plan"
)

// BenchmarkFeedbackIngest measures observation-log append throughput —
// the hot path POST /observe rides on — under parallel load on the
// log's one writer. Encode cost (plan wire encoding + CRC) is part of
// the measured path on purpose: that is what each ingest pays.
func BenchmarkFeedbackIngest(b *testing.B) {
	plans := executedPlans(b, 71, 16)
	l, err := OpenLog(LogOptions{Dir: b.TempDir(), SegmentBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var i atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := i.Add(1)
			obs := &Observation{
				Schema:       "tpch",
				Resource:     plan.CPUTime,
				ModelVersion: n,
				Predicted:    float64(n),
				Plan:         plans[n%uint64(len(plans))],
				UnixNanos:    int64(n),
			}
			if err := l.Append(obs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "obs/s")
	}
}

// BenchmarkFeedbackObserve measures the full Loop ingest path: append,
// per-operator error tracking against a live model, and the periodic
// drift check.
func BenchmarkFeedbackObserve(b *testing.B) {
	plans := executedPlans(b, 72, 32)
	pub := &stubPublisher{}
	trainStale(b, pub, plans)
	l, err := New(Options{
		Dir:       b.TempDir(),
		Publisher: pub,
		// A huge retrain gate keeps the benchmark measuring ingest, not
		// background training.
		MinObservations: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := &Observation{Schema: "tpch", Resource: plan.CPUTime, Plan: plans[i%len(plans)]}
		if err := l.Observe(obs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "obs/s")
	}
}
