package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/plan"
)

func TestTable8Shape(t *testing.T) {
	r := sharedRunner(t)
	tbl, err := sharedTable(r, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 7 techniques × 2 test sets.
	if len(tbl.Rows) != 14 {
		t.Fatalf("Table 8 rows = %d, want 14", len(tbl.Rows))
	}
	for _, set := range []string{"Large", "Small"} {
		mart := tbl.Get(TechMART, set)
		sc := tbl.Get(TechScaling, set)
		if mart == nil || sc == nil {
			t.Fatalf("missing rows for %s", set)
		}
		// Even with estimated features, MART degrades more than SCALING
		// under the size shift.
		if sc.Result.L1 > mart.Result.L1*1.2 {
			t.Errorf("%s: SCALING L1 %.3f much worse than MART %.3f", set, sc.Result.L1, mart.Result.L1)
		}
	}
}

func TestTable9Shape(t *testing.T) {
	r := sharedRunner(t)
	tbl, err := sharedTable(r, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 21 {
		t.Fatalf("Table 9 rows = %d, want 21", len(tbl.Rows))
	}
	// The paper's observation: estimated-feature errors grow on the
	// cross workloads for everyone; MART remains the weakest learned
	// model on most sets.
	martWorse := 0
	for _, set := range []string{"TPC-DS", "Real-1", "Real-2"} {
		mart := tbl.Get(TechMART, set)
		sc := tbl.Get(TechScaling, set)
		if mart.Result.L1 >= sc.Result.L1 {
			martWorse++
		}
	}
	if martWorse < 2 {
		t.Errorf("MART beat SCALING on %d/3 cross-workload sets", 3-martWorse)
	}
}

func TestTable11Shape(t *testing.T) {
	r := sharedRunner(t)
	tbl, err := sharedTable(r, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("Table 11 rows = %d, want 8 (4 techniques x 2 sets)", len(tbl.Rows))
	}
	sc := tbl.Get(TechScaling, "Large")
	if sc == nil || sc.Result.Buckets.NQueries == 0 {
		t.Fatal("missing SCALING/Large row")
	}
	// The numeric pin for I/O. Table 11 has no MART row, so plain MART is
	// trained here on the same split. Seeds 1-5 at this runner's size and
	// iterations gave SCALING L1 0.2776 0.2771 0.2673 0.2504 0.3201 and
	// SCALING/MART 0.4166 0.4530 0.4593 0.3981 0.5014 on the Large row;
	// each band is that [min, max] widened by half its width either side.
	small, large := r.SplitBySF()
	mt, err := r.runTable("", "", small, map[string][]*plan.Plan{"Large": large},
		r.cfgFor(plan.LogicalIO, features.Estimated, []string{TechMART}))
	if err != nil {
		t.Fatal(err)
	}
	mart := mt.Get(TechMART, "Large")
	checkBand(t, "Table 11 Large SCALING L1", sc.Result.L1, 0.215, 0.355)
	checkBand(t, "Table 11 Large SCALING/MART L1", sc.Result.L1/mart.Result.L1, 0.346, 0.553)
}

func TestTable12Shape(t *testing.T) {
	r := sharedRunner(t)
	tbl, err := sharedTable(r, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 12 {
		t.Fatalf("Table 12 rows = %d, want 12", len(tbl.Rows))
	}
	// I/O cross-workload: aggregated over the three sets, SCALING must
	// stay competitive with the best technique (per-set comparisons are
	// too noisy at test-sized workloads; the paper-sized resbench run is
	// the authoritative comparison, see EXPERIMENTS.md).
	var scSum float64
	bestSum := 0.0
	for _, set := range []string{"TPC-DS", "Real-1", "Real-2"} {
		min := -1.0
		for _, tech := range ioTechniques() {
			row := tbl.Get(tech, set)
			if row == nil {
				t.Fatalf("missing %s/%s", tech, set)
			}
			if min < 0 || row.Result.L1 < min {
				min = row.Result.L1
			}
		}
		bestSum += min
		scSum += tbl.Get(TechScaling, set).Result.L1
	}
	if scSum > bestSum*2.5 {
		t.Errorf("SCALING aggregate I/O L1 %.2f vs best-per-set aggregate %.2f", scSum, bestSum)
	}
}

func TestTableGetAndOrdering(t *testing.T) {
	r := sharedRunner(t)
	tbl, err := sharedTable(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Get("NOPE", "TPC-H") != nil {
		t.Fatal("Get for unknown technique returned a row")
	}
	// Rows are ordered by the paper's technique ordering.
	lastOrder := -1
	for _, row := range tbl.Rows {
		o := techniqueOrder[row.Technique]
		if o < lastOrder {
			t.Fatalf("row ordering violated at %s", row.Technique)
		}
		lastOrder = o
	}
	out := tbl.Format()
	if !strings.Contains(out, "L1 Err") || !strings.Contains(out, "%") {
		t.Fatal("Format missing headers")
	}
}

func TestRelatedWorkKCCA(t *testing.T) {
	r := sharedRunner(t)
	res, err := r.RelatedWorkKCCA()
	if err != nil {
		t.Fatal(err)
	}
	// The defining failure (§1.1): every out-of-distribution query above
	// the training max gets a capped estimate.
	if res.OutAbove == 0 {
		t.Fatal("no test queries above the training max; setup broken")
	}
	if res.OutCapped != res.OutAbove {
		t.Fatalf("%d/%d above-max queries escaped the training-max bound",
			res.OutAbove-res.OutCapped, res.OutAbove)
	}
	// And it is much worse out of distribution than in distribution.
	if res.OutDist.L1 <= res.InDist.L1 {
		t.Fatalf("KCCA out-of-distribution L1 %.2f should exceed in-distribution %.2f",
			res.OutDist.L1, res.InDist.L1)
	}
	if !strings.Contains(res.Format(), "KCCA") {
		t.Fatal("Format broken")
	}
}

func TestFigure8Format(t *testing.T) {
	r := sharedRunner(t)
	fig := r.Figure8()
	out := fig.Format()
	for _, want := range []string{"Figure 8", "observed", "fit "} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 8 format missing %q", want)
		}
	}
}

// TestTableGridBands pins SCALING's L1 on the rows of the Tables 4–12
// grid whose spread over seeds is under half their median. Seeds 1-5 at
// this runner's size and iterations gave the values in each comment;
// each band is that [min, max] widened by half its width either side
// and rounded outward. Table 5 and 11's Large rows keep their own
// tests; the wider rows (Table 6 TPC-DS, 8 Small, 9 Real-1, 11 Small
// and all of 12) are left to ratio bands.
func TestTableGridBands(t *testing.T) {
	r := sharedRunner(t)
	for _, n := range []int{3, 13} {
		if _, err := r.Table(n); err == nil {
			t.Errorf("Table(%d) returned no error", n)
		}
	}
	for _, b := range []struct {
		n      int
		set    string
		lo, hi float64
	}{
		{4, "TPC-H", 0.039, 0.059},  // 0.0476 0.0438 0.0533 0.0458 0.0466
		{5, "Small", 0.053, 0.093},  // 0.0766 0.0722 0.0630 0.0829 0.0776
		{6, "Real-1", 0.144, 0.377}, // 0.2022 0.2032 0.2921 0.2524 0.3184
		{6, "Real-2", 0.173, 0.297}, // 0.2147 0.2299 0.2660 0.2042 0.2504
		{7, "TPC-H", 0.205, 0.512},  // 0.3186 0.2818 0.4349 0.2892 0.3127
		{8, "Large", 0.280, 0.499},  // 0.4437 0.3349 0.3406 0.3618 0.3983
		{9, "Real-2", 0.998, 2.083}, // 1.4453 1.2694 1.8118 1.6625 1.4845
		{9, "TPC-DS", 0.558, 1.444}, // 1.1749 0.7798 0.9214 0.9601 1.2223
		{10, "TPC-H", 0.176, 0.370}, // 0.2245 0.2818 0.3210 0.2819 0.2391
	} {
		tbl, err := sharedTable(r, b.n)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("Table %d", b.n); tbl.Name != want {
			t.Errorf("Table(%d) is named %q", b.n, tbl.Name)
		}
		sc := tbl.Get(TechScaling, b.set)
		if sc == nil {
			t.Fatalf("Table %d has no SCALING/%s row", b.n, b.set)
		}
		checkBand(t, fmt.Sprintf("Table %d %s SCALING L1", b.n, b.set), sc.Result.L1, b.lo, b.hi)
	}
}
