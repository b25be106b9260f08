package jsonscan_test

import (
	"regexp"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/jsonscan"
	"repro/internal/plan"
	"repro/internal/workload"
)

// planFloats returns the literals plan.Decoder hands to jsonscan.Float
// in the wire encodings of a generated TPC-H workload, in plan order.
func planFloats(b *testing.B) [][]byte {
	cfg := workload.DefaultConfig()
	cfg.N = 24
	eng := engine.New(nil)
	member := regexp.MustCompile(`"([a-z_]+)":(-?[0-9][0-9.eE+-]*)`)
	var lits [][]byte
	for _, q := range workload.GenTPCH(cfg) {
		eng.Run(q.Plan)
		enc, err := plan.EncodeJSON(q.Plan)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range member.FindAllSubmatch(enc, -1) {
			switch string(m[1]) {
			case "version", "sort_cols", "hash_cols", "inner_cols", "outer_cols":
			default: // a float field
				lits = append(lits, m[2])
			}
		}
	}
	return lits
}

var sinkFloat float64

// BenchmarkFloat converts the number literals of generated plans, one
// op being the whole mix; ns/literal is the per-number cost.
func BenchmarkFloat(b *testing.B) {
	lits := planFloats(b)
	for _, bc := range []struct {
		name    string
		convert func([]byte) (float64, bool)
	}{
		{"jsonscan", func(lit []byte) (float64, bool) {
			f, _, ok := jsonscan.Float(lit, 0)
			return f, ok
		}},
		{"strconv", func(lit []byte) (float64, bool) {
			f, err := strconv.ParseFloat(string(lit), 64)
			return f, err == nil
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, lit := range lits {
					f, ok := bc.convert(lit)
					if !ok {
						b.Fatalf("%s declined %s", bc.name, lit)
					}
					sinkFloat = f
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lits)), "ns/literal")
		})
	}
}
