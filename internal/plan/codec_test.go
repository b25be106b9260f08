package plan_test

// Round-trip property tests for the plan wire codec, run over generated
// workload plans (the external test package avoids an import cycle with
// internal/workload).

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
)

// genPlans builds a varied plan corpus: every schema family, executed so
// Actual resources are populated too.
func genPlans(t testing.TB) []*plan.Plan {
	t.Helper()
	var out []*plan.Plan
	eng := engine.New(nil)
	cfg := workload.DefaultConfig()
	cfg.N = 24
	for i, gen := range []func() []*workload.Query{
		func() []*workload.Query { return workload.GenTPCH(cfg) },
		func() []*workload.Query { return workload.GenGeneric("tpcds", cfg, 2, 5) },
		func() []*workload.Query { return workload.GenGeneric("real1", cfg, 4, 7) },
	} {
		cfg.Seed = uint64(100 + i)
		for _, q := range gen() {
			eng.Run(q.Plan)
			out = append(out, q.Plan)
		}
	}
	return out
}

func TestCodecRoundTripProperty(t *testing.T) {
	for _, p := range genPlans(t) {
		enc1, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", p.Tag, err)
		}
		dec, err := plan.DecodeJSON(enc1)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Tag, err)
		}
		enc2, err := plan.EncodeJSON(dec)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", p.Tag, err)
		}
		// Property 1: encode → decode → encode is byte-identical.
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s: re-encoding differs:\n%s\nvs\n%s", p.Tag, enc1, enc2)
		}
		// Property 2: totals survive the round trip exactly.
		if a, b := p.TotalActual(), dec.TotalActual(); a != b {
			t.Fatalf("%s: totals drifted: %+v vs %+v", p.Tag, a, b)
		}
		// Property 3: structure is preserved — operator sequence, IDs and
		// pipeline decomposition.
		an, bn := p.Nodes(), dec.Nodes()
		if len(an) != len(bn) {
			t.Fatalf("%s: node count %d vs %d", p.Tag, len(an), len(bn))
		}
		for i := range an {
			if an[i].Kind != bn[i].Kind || an[i].ID != bn[i].ID {
				t.Fatalf("%s: node %d mismatch: %s/%d vs %s/%d",
					p.Tag, i, an[i].Kind, an[i].ID, bn[i].Kind, bn[i].ID)
			}
			if an[i].Out != bn[i].Out || an[i].EstOut != bn[i].EstOut {
				t.Fatalf("%s: node %d cardinalities drifted", p.Tag, i)
			}
		}
		ap, bp := p.Pipelines(), dec.Pipelines()
		if len(ap) != len(bp) {
			t.Fatalf("%s: pipeline count %d vs %d", p.Tag, len(ap), len(bp))
		}
		for i := range ap {
			if len(ap[i].Nodes) != len(bp[i].Nodes) {
				t.Fatalf("%s: pipeline %d size %d vs %d",
					p.Tag, i, len(ap[i].Nodes), len(bp[i].Nodes))
			}
			for j := range ap[i].Nodes {
				if ap[i].Nodes[j].ID != bp[i].Nodes[j].ID {
					t.Fatalf("%s: pipeline %d node %d id mismatch", p.Tag, i, j)
				}
			}
		}
	}
}

func TestCodecValidatesOnDecode(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"bad json", `{`},
		{"bad version", `{"version":99,"root":{"kind":"TableScan","table":"t","table_rows":1,"table_pages":1}}`},
		{"missing root", `{"version":1}`},
		{"unknown kind", `{"version":1,"root":{"kind":"Exchange"}}`},
		{"leaf missing stats", `{"version":1,"root":{"kind":"TableScan","table":"t"}}`},
		{"wrong arity", `{"version":1,"root":{"kind":"Sort"}}`},
		{"null child", `{"version":1,"root":{"kind":"Sort","children":[null]}}`},
	}
	for _, c := range cases {
		if _, err := plan.DecodeJSON([]byte(c.data)); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

func TestParseOpKind(t *testing.T) {
	for _, k := range plan.Kinds() {
		got, err := plan.ParseOpKind(k.String())
		if err != nil || got != k {
			t.Fatalf("%s: got %v, %v", k, got, err)
		}
	}
	if _, err := plan.ParseOpKind("nope"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
