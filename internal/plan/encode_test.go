package plan_test

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/plan"
)

// checkEncodeAgainstStd runs one plan through both encoders, asserts
// the differential contract — the append encoder declines, or its bytes
// are json.Marshal's — and reports whether the fast path took it.
func checkEncodeAgainstStd(t *testing.T, p *plan.Plan) (fastTook bool) {
	t.Helper()
	ref, refErr := plan.EncodeStd(p)
	fast, ok := plan.AppendPlan(nil, p)
	got, err := plan.EncodeJSON(p)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("EncodeJSON error %v, stdlib %v", err, refErr)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("EncodeJSON wrote\n%s\nstdlib\n%s", got, ref)
	}
	if !ok {
		return false
	}
	if refErr != nil {
		t.Fatalf("fast path encoded a plan stdlib refuses (%v):\n%s", refErr, fast)
	}
	if !bytes.Equal(fast, ref) {
		t.Fatalf("fast path wrote\n%s\nstdlib\n%s", fast, ref)
	}
	return true
}

// encodePlan builds a two-operator plan that spreads a and b over
// float fields of both operators and n over the int fields.
func encodePlan(tag, table string, a, b float64, n int) *plan.Plan {
	leaf := plan.NewLeaf(plan.TableScan, table)
	leaf.TableRows, leaf.TablePages, leaf.TableCols = a, b, b-a
	leaf.IndexDepth, leaf.EstIOCost = b, a
	leaf.Out = plan.Cardinality{Rows: a, Width: b}
	leaf.Actual = plan.Resources{CPU: b, IO: a}
	root := plan.NewUnary(plan.Sort, leaf)
	root.EstOut = plan.Cardinality{Rows: b, Width: a}
	root.SortCols, root.HashCols, root.InnerCols, root.OuterCols = n, -n, n/2, 0
	root.HashOpAvg, root.Selectivity, root.Executions, root.EstExecutions = a, b, a*b, a/3
	return plan.New(root, tag)
}

func TestFastEncodeEdgeCases(t *testing.T) {
	for _, c := range []struct {
		name, tag, table string
		a, b             float64
		fast             bool
	}{
		{"plain", "q1", "lineitem", 6e6, 0.25, true},
		{"zero fields omitted", "", "t", 0, 1, true},
		{"negative zero", "", "t", 1, math.Copysign(0, -1), false},
		{"exponent from 1e21", "", "t", 1e21, 999999999999999868928, true},
		{"exponent below 1e-6", "", "t", 1e-7, 1e-6, true},
		{"two-digit exponent", "", "t", 1.5e-10, 2.5e+100, true},
		{"smallest denormal", "", "t", 5e-324, math.MaxFloat64, true},
		{"NaN", "", "t", math.NaN(), 1, false},
		{"+Inf", "", "t", 1, math.Inf(1), false},
		{"-Inf", "", "t", math.Inf(-1), 1, false},
		{"html in table", "", "a<b>&c", 1, 1, false},
		{"html in tag", "<q>", "t", 1, 1, false},
		{"quote in table", "", `a"b`, 1, 1, false},
		{"backslash in tag", `a\b`, "t", 1, 1, false},
		{"control character", "a\nb", "t", 1, 1, false},
		{"non-ASCII table", "", "tâble", 1, 1, false},
		{"invalid UTF-8 tag", "\xff", "t", 1, 1, false},
		{"empty table", "", "", 1, 1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if took := checkEncodeAgainstStd(t, encodePlan(c.tag, c.table, c.a, c.b, 7)); took != c.fast {
				t.Fatalf("fast path took it = %v, want %v", took, c.fast)
			}
		})
	}
}

// TestFastEncodeAcceptsGeneratedPlans guards the gain itself: an
// encoder that declined generated plans would pass every correctness
// test and encode at stdlib speed.
func TestFastEncodeAcceptsGeneratedPlans(t *testing.T) {
	plans := genPlans(t)
	for _, p := range plans {
		if !checkEncodeAgainstStd(t, p) {
			t.Fatalf("%s: fast path declined a generated plan", p.Tag)
		}
	}
	t.Logf("fast path took %d of %d generated plans", len(plans), len(plans))
}

// TestFastEncodeAllocs pins EncodeJSON to the one buffer it returns.
func TestFastEncodeAllocs(t *testing.T) {
	p, _ := smallPlan(t, genPlans(t))
	got := testing.AllocsPerRun(100, func() {
		if _, err := plan.EncodeJSON(p); err != nil {
			t.Fatal(err)
		}
	})
	std := testing.AllocsPerRun(100, func() {
		if _, err := plan.EncodeStd(p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-node plan: fast path %.0f allocs, encoding/json %.0f", p.NumNodes(), got, std)
	if got > 1 {
		t.Fatalf("EncodeJSON allocates %.0f times, want 1", got)
	}
}

// FuzzPlanEncode pins the append encoder to encoding/json over
// arbitrary names and numbers: it declines, or writes json.Marshal's
// bytes; either way EncodeJSON answers what stdlib answers.
func FuzzPlanEncode(f *testing.F) {
	f.Add("q1", "lineitem", 6e6, 0.25, 3)
	f.Add("", "t", math.Copysign(0, -1), 1e21, 0)
	f.Add("", "t", 1e-7, 5e-324, -1)
	f.Add("<q>", "a&b", math.NaN(), math.Inf(1), 1<<40)
	f.Add(`"`, "tâble\\", 123456789012345680.0, 1e-6, 9)
	f.Fuzz(func(t *testing.T, tag, table string, a, b float64, n int) {
		checkEncodeAgainstStd(t, encodePlan(tag, table, a, b, n))
	})
}

var sinkBytes []byte

// BenchmarkEncodeJSON encodes the plan BenchmarkDecodeJSON decodes.
func BenchmarkEncodeJSON(b *testing.B) {
	plans := genPlans(b)[:24]
	sort.Slice(plans, func(i, j int) bool { return plans[i].NumNodes() < plans[j].NumNodes() })
	median := plans[len(plans)/2]
	for _, bc := range []struct {
		name   string
		encode func(*plan.Plan) ([]byte, error)
	}{{"fast", plan.EncodeJSON}, {"stdlib", plan.EncodeStd}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var err error
			for i := 0; i < b.N; i++ {
				if sinkBytes, err = bc.encode(median); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(sinkBytes)))
		})
	}
}
