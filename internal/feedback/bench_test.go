package feedback

import (
	"sync/atomic"
	"testing"

	"repro/internal/plan"
)

// BenchmarkFeedbackIngest measures observation-log append throughput —
// the hot path POST /observe rides on — under parallel load on the
// log's one writer (-cpu 1,8 runs it at 1 and 8 goroutines). Both cases
// pay the CRC and the write: /reencode also encodes the plan, as
// Loop.Observe does; /wire appends the JSON the plan arrived in, as
// POST /observe does.
func BenchmarkFeedbackIngest(b *testing.B) {
	plans := executedPlans(b, 71, 16)
	wires := make([][]byte, len(plans))
	for k, p := range plans {
		enc, err := plan.EncodeJSON(p)
		if err != nil {
			b.Fatal(err)
		}
		wires[k] = enc
	}
	for _, c := range []struct {
		name string
		wire bool
	}{{"reencode", false}, {"wire", true}} {
		b.Run(c.name, func(b *testing.B) {
			l, err := OpenLog(LogOptions{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			var i atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := i.Add(1)
					k := n % uint64(len(plans))
					obs := &Observation{
						Schema:       "tpch",
						Resource:     plan.CPUTime,
						ModelVersion: n,
						Predicted:    float64(n),
						Plan:         plans[k],
						UnixNanos:    int64(n),
					}
					var wire []byte
					if c.wire {
						wire = wires[k]
					}
					if err := l.appendWire(obs, wire); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "obs/s")
			}
		})
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
