package cluster

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/workload"
)

const scanPlan = `{"version":1,"root":{"kind":"TableScan","table":"t","table_rows":8,"table_pages":2,"actual_cpu":1.5}}`

// TestSchemaScan: canonical bodies are read by the scan, whatever the
// key order and whitespace; the bodies it cannot read as encoding/json
// would are declined, and left to the full decode.
func TestSchemaScan(t *testing.T) {
	for _, c := range []struct {
		body   string
		schema string
		ok     bool
	}{
		{`{"schema":"tpch","resource":"cpu","plan":` + scanPlan + `}`, "tpch", true},
		{`{"resources":["cpu","io"],"plan":` + scanPlan + `,"timeout_ms":5,"schema":"real1"}`, "real1", true},
		{" { \"plan\" : " + scanPlan + " ,\n\"schema\" : \"tpcds\" } ", "tpcds", true},
		{`{"plan":{"s":"}\"{"},"schema":"tpch"}`, "tpch", true},
		{`{"resource":"cpu","plan":` + scanPlan + `}`, "", true},
		{`{"schema":"a","schema":"b"}`, "", false},
		{`{"Schema":"tpch","plan":` + scanPlan + `}`, "", false},
		{`{"schema":"tpch","SCHEMA":"real1"}`, "", false},
		{`{"ſchema":"tpch"}`, "", false},
		{`{"sch\u0065ma":"tpch"}`, "", false},
		{`{"schema":"t\u0070ch"}`, "", false},
		{`{"schema":null,"plan":{}}`, "", false},
		{`{"schema":7}`, "", false},
		{`{}`, "", false},
		{`[{"schema":"tpch"}]`, "", false},
		{`{"schema":"tpch","plan":{`, "", false},
	} {
		schema, ok := scanSchema([]byte(c.body))
		if schema != c.schema || ok != c.ok {
			t.Errorf("scanSchema(%s) = %q, %v; want %q, %v", c.body, schema, ok, c.schema, c.ok)
		}
	}
}

// FuzzSchemaScan: whenever serve's decoder accepts a body as the router
// peeks it, the scan returns the schema that decode read, or declines.
func FuzzSchemaScan(f *testing.F) {
	for _, seed := range []string{
		`{"schema":"tpch","resource":"cpu","plan":` + scanPlan + `,"timeout_ms":250}`,
		`{"plan":` + scanPlan + `,"resources":"all","schema":"tpch"}`,
		`{"schema":"a","schema":"b"}`,
		`{"schema":"real1","Schema":"tpch"}`,
		`{"schema":"real1","ſchema":"tpch"}`,
		`{"sch\u0065ma":"tpch"}`,
		`{"schema":"t\u0070ch"}`,
		`{"schema":null,"unknown":{"schema":"x"}}`,
		`{"schema":"tpch"} trailing`,
		`{"plan":"}","schema":"x"}`,
		`null`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		schema, ok := scanSchema(body) // must never panic
		env, err := serve.DecodeRequest(body, serve.ForwardKeys)
		if err == nil && ok && schema != env.Schema {
			t.Fatalf("scan read schema %q, the decode %q", schema, env.Schema)
		}
	})
}

// BenchmarkScanSchema reads the schema of the /estimate bodies of a
// generated TPC-H workload, as the router does for every miss; one op
// is the whole set, ns/body the cost of one.
func BenchmarkScanSchema(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.N = 64
	eng := engine.New(nil)
	var bodies [][]byte
	size := 0
	for _, q := range workload.GenTPCH(cfg) {
		eng.Run(q.Plan)
		enc, err := plan.EncodeJSON(q.Plan)
		if err != nil {
			b.Fatal(err)
		}
		body := append(append([]byte(`{"schema":"tpch","resource":"cpu","plan":`), enc...), '}')
		bodies = append(bodies, body)
		size += len(body)
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			if schema, ok := scanSchema(body); !ok || schema != "tpch" {
				b.Fatalf("scanSchema read %q, %v", schema, ok)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bodies)), "ns/body")
}
