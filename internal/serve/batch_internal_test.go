package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/plan"
	"repro/internal/workload"
)

// BenchmarkBatchPlansDecode decodes a 64-plan POST /estimate/batch
// body the way the handler does: encoding/json for the envelope,
// batchPlans splitting the array into plan.DecodeJSON calls.
func BenchmarkBatchPlansDecode(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.N = 64
	cfg.Seed = 11
	var body bytes.Buffer
	body.WriteString(`{"schema":"tpch","resources":"all","plans":[`)
	for i, q := range workload.GenTPCH(cfg) {
		enc, err := plan.EncodeJSON(q.Plan)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			body.WriteByte(',')
		}
		body.Write(enc)
	}
	body.WriteString(`]}`)

	b.ReportAllocs()
	b.SetBytes(int64(body.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req batchEstimateRequestJSON
		if err := json.NewDecoder(bytes.NewReader(body.Bytes())).Decode(&req); err != nil {
			b.Fatal(err)
		}
		if len(req.Plans.plans) != cfg.N || req.Plans.badErr != nil {
			b.Fatalf("decoded %d plans, error %v", len(req.Plans.plans), req.Plans.badErr)
		}
	}
}
