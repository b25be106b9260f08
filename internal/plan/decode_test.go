package plan_test

// Tests for the single-pass plan decoder (decode.go): which shapes it
// takes and which it leaves to encoding/json, that it takes every plan
// the encoder writes, and what it allocates.

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/plan"
)

type decodeEdgeCase struct {
	name string
	data string
	fast bool // the fast path takes it (else: declines, stdlib decides)
}

// decodeEdgeCases lists inputs at the edge of the canonical shape.
// TestFastDecodeEdgeCases checks each against stdlib and against its
// fast column; FuzzPlanDecode starts from them.
func decodeEdgeCases() []decodeEdgeCase {
	const leaf = `{"kind":"TableScan","table":"t","table_rows":10,"table_pages":2,"out_rows":10,"out_width":8}`
	wrap := func(root string) string { return `{"version":1,"tag":"q","root":` + root + `}` }
	sortOver := func(extra, child string) string {
		return `{"kind":"Sort","sort_cols":2` + extra + `,"children":[` + child + `]}`
	}
	leafWith := func(member string) string { return strings.Replace(leaf, `"out_width":8`, member, 1) }
	deep := strings.Repeat(`{"kind":"Filter","children":[`, 600) + leaf + strings.Repeat(`]}`, 600)

	return []decodeEdgeCase{
		{"canonical", wrap(sortOver("", leaf)), true},
		{"join", wrap(`{"kind":"HashJoin","hash_cols":1,"children":[` + leaf + `,` + sortOver("", leaf) + `]}`), true},
		{"children before kind", wrap(`{"children":[` + leaf + `],"sort_cols":2,"kind":"Sort"}`), true},
		{"root before version", `{"root":` + leaf + `,"version":1}`, true},
		{"whitespace everywhere", " {\n\t\"version\" : 1 ,\r\n \"root\" : { \"kind\" : \"Sort\" , \"children\" : [ " +
			leaf + " ] , \"sort_cols\" : 2 } } \n", true},
		{"valid UTF-8 in table", wrap(strings.Replace(leaf, `"t"`, `"täble"`, 1)), true},
		{"exponent in a float field", wrap(leafWith(`"out_width":8e0`)), true},
		{"negative zero", wrap(leafWith(`"out_width":-0`)), true},

		{"duplicate scalar key", wrap(leafWith(`"out_width":8,"out_width":9`)), false},
		{"duplicate root", `{"version":1,"root":` + leaf + `,"root":` + leaf + `}`, false},
		{"duplicate version", `{"version":1,"version":1,"root":` + leaf + `}`, false},
		{"out-of-range float", wrap(leafWith(`"out_width":1e999`)), false},
		{"fraction in an int field", wrap(sortOver(`,"hash_cols":3.0`, leaf)), false},
		{"fraction in version", `{"version":1.0,"root":` + leaf + `}`, false},
		{"19-digit int", wrap(sortOver(`,"hash_cols":1000000000000000000`, leaf)), false},
		{"leading zero", wrap(leafWith(`"out_width":08`)), false},
		{"case-folded key", wrap(strings.Replace(leaf, `"kind"`, `"Kind"`, 1)), false},
		{"unknown key", wrap(leafWith(`"out_width":8,"cost":1`)), false},
		{"escape in table", wrap(strings.Replace(leaf, `"t"`, `"\u0041"`, 1)), false},
		{"escape in a key", wrap(strings.Replace(leaf, `"table"`, `"\u0074able"`, 1)), false},
		{"invalid UTF-8 in tag", "{\"version\":1,\"tag\":\"\xff\",\"root\":" + leaf + "}", false},
		{"control character in table", wrap(strings.Replace(leaf, `"t"`, "\"t\x01\"", 1)), false},
		{"empty children", wrap(leafWith(`"out_width":8,"children":[]`)), false},
		{"null scalar", wrap(leafWith(`"out_width":null`)), false},
		{"null child", wrap(sortOver("", "null")), false},
		{"null root", `{"version":1,"root":null}`, false},
		{"three children", wrap(`{"kind":"HashJoin","children":[` + leaf + `,` + leaf + `,` + leaf + `]}`), false},
		{"depth 600", wrap(deep), false},
		{"trailing garbage", wrap(leaf) + `x`, false},
		{"trailing value", wrap(leaf) + ` {}`, false},
		{"truncated", wrap(leaf)[:40], false},
		{"missing version", `{"root":` + leaf + `}`, false},
		{"wrong version", `{"version":2,"root":` + leaf + `}`, false},
		{"missing root", `{"version":1}`, false},
		{"missing kind", wrap(`{"table":"t","table_rows":10,"table_pages":2}`), false},
		{"unknown operator", wrap(strings.Replace(leaf, "TableScan", "Exchange", 1)), false},
		{"kind of the wrong type", wrap(strings.Replace(leaf, `"TableScan"`, `7`, 1)), false},
		{"Validate: wrong arity", wrap(`{"kind":"Sort"}`), false},
		{"Validate: leaf without stats", wrap(`{"kind":"TableScan","table":"t"}`), false},
		{"Validate: negative cardinality", wrap(leafWith(`"out_width":-8`)), false},
		{"Validate: nested loop inner", wrap(`{"kind":"NestedLoopJoin","children":[` + leaf + `,` + leaf + `]}`), false},
		{"not an object", `[1]`, false},
		{"empty", ``, false},
	}
}

func TestFastDecodeEdgeCases(t *testing.T) {
	for _, c := range decodeEdgeCases() {
		t.Run(c.name, func(t *testing.T) {
			if took := checkDecodeAgainstStd(t, []byte(c.data)); took != c.fast {
				t.Fatalf("fast path took it = %v, want %v: %s", took, c.fast, c.data)
			}
		})
	}
}

// TestFastDecodeAcceptsEncoderOutput guards the gain itself: a fast
// path that declined what EncodeJSON writes would fall back on every
// request, pass every correctness test and decode at stdlib speed.
func TestFastDecodeAcceptsEncoderOutput(t *testing.T) {
	plans := genPlans(t)
	for _, p := range plans {
		enc, err := plan.EncodeJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		if !checkDecodeAgainstStd(t, enc) {
			t.Fatalf("%s: fast path declined encoder output:\n%s", p.Tag, enc)
		}
	}
	t.Logf("fast path took %d of %d encoded plans", len(plans), len(plans))
}

// smallPlan returns the encoding of a generated plan of 4 to 8 nodes.
func smallPlan(t testing.TB, plans []*plan.Plan) (*plan.Plan, []byte) {
	t.Helper()
	for _, p := range plans {
		if n := p.NumNodes(); n >= 4 && n <= 8 {
			enc, err := plan.EncodeJSON(p)
			if err != nil {
				t.Fatal(err)
			}
			return p, enc
		}
	}
	t.Fatal("no plan of 4 to 8 nodes generated")
	return nil, nil
}

// TestFastDecodeAllocs pins the fast path's allocations to what the
// plan holds: the Plan, the node chunk (child slots included) and one
// string per tag and table name.
func TestFastDecodeAllocs(t *testing.T) {
	p, enc := smallPlan(t, genPlans(t))
	want := 2.0
	if p.Tag != "" {
		want++
	}
	for _, n := range p.Nodes() {
		if n.Table != "" {
			want++
		}
	}
	got := testing.AllocsPerRun(100, func() {
		if _, ok := plan.FastDecode(enc); !ok {
			t.Fatal("fast path declined")
		}
	})
	std := testing.AllocsPerRun(100, func() {
		if _, err := plan.DecodeStd(enc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-node plan: fast path %.0f allocs, encoding/json %.0f", p.NumNodes(), got, std)
	if got > want {
		t.Fatalf("fast path allocates %.0f times for a %d-node plan, want at most %.0f", got, p.NumNodes(), want)
	}
}

var sinkPlan *plan.Plan

// BenchmarkDecodeJSON decodes one representative TPC-H plan (the
// pool's median by node count) through DecodeJSON and through the
// encoding/json path it replaced.
func BenchmarkDecodeJSON(b *testing.B) {
	plans := genPlans(b)[:24] // the TPC-H third of the pool
	sort.Slice(plans, func(i, j int) bool { return plans[i].NumNodes() < plans[j].NumNodes() })
	median := plans[len(plans)/2]
	enc, err := plan.EncodeJSON(median)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) (*plan.Plan, error)
	}{{"fast", plan.DecodeJSON}, {"stdlib", plan.DecodeStd}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if sinkPlan, err = bc.decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
