package serve

import (
	"bytes"
	"testing"

	"repro/internal/plan"
	"repro/internal/workload"
)

// BenchmarkBatchPlansDecode decodes a 64-plan POST /estimate/batch
// body the way the handler does — DecodeRequest: the envelope walker
// handing each plans element to plan.DecodeJSON — and, beside it, the
// way it does for a body the walker declines: encoding/json for the
// envelope, batchPlans splitting the array.
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

	for _, bc := range []struct {
		name   string
		decode func([]byte, EnvelopeKeys) (Envelope, error)
	}{{"fast", DecodeRequest}, {"stdlib", decodeRequestStd}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(body.Len()))
			for i := 0; i < b.N; i++ {
				env, err := bc.decode(body.Bytes(), batchKeys)
				if err != nil {
					b.Fatal(err)
				}
				if len(env.Plans) != cfg.N || env.badPlanErr != nil {
					b.Fatalf("decoded %d plans, error %v", len(env.Plans), env.badPlanErr)
				}
			}
		})
	}
}
