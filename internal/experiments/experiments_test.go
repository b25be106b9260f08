package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/plan"
)

var (
	runnerOnce sync.Once
	testRunner *Runner

	tableOnce [13]sync.Once
	tables    [13]*Table
	tableErrs [13]error
)

// sharedRunner builds one small-scale runner for all tests (workload
// execution and scale-function selection are the expensive parts).
func sharedRunner(t *testing.T) *Runner {
	t.Helper()
	runnerOnce.Do(func() {
		testRunner = NewRunner(Setup{Seed: 3, SizeFactor: 0.4, MartIterations: 150, Noise: -1})
	})
	return testRunner
}

// sharedTable is r.Table(n) computed once per test binary; r is always
// sharedRunner's runner.
func sharedTable(r *Runner, n int) (*Table, error) {
	tableOnce[n].Do(func() { tables[n], tableErrs[n] = r.Table(n) })
	return tables[n], tableErrs[n]
}

func TestRunnerWorkloadsExecuted(t *testing.T) {
	r := sharedRunner(t)
	for _, q := range r.W.TPCH[:10] {
		if q.Plan.TotalActual().CPU <= 0 {
			t.Fatal("TPC-H plan not executed")
		}
	}
	if r.ScaleTable.Len() == 0 {
		t.Fatal("scale table empty")
	}
	train, test := r.SplitTPCH()
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("empty TPC-H split")
	}
	small, large := r.SplitBySF()
	if len(small) == 0 || len(large) == 0 {
		t.Fatal("empty SF split")
	}
}

func TestTable4Shape(t *testing.T) {
	r := sharedRunner(t)
	tbl, err := sharedTable(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("Table 4 has %d rows, want 6", len(tbl.Rows))
	}
	sc := tbl.Get(TechScaling, "TPC-H")
	lin := tbl.Get(TechLinear, "TPC-H")
	if sc == nil || lin == nil {
		t.Fatal("missing rows")
	}
	// The headline claim: SCALING beats LINEAR on same-distribution data
	// and achieves a high fraction of small-ratio queries.
	if sc.Result.L1 >= lin.Result.L1 {
		t.Errorf("SCALING L1 %.3f not better than LINEAR %.3f", sc.Result.L1, lin.Result.L1)
	}
	if sc.Result.Buckets.LE15 < 0.7 {
		t.Errorf("SCALING R<=1.5 fraction %.2f too low", sc.Result.Buckets.LE15)
	}
	if !strings.Contains(tbl.Format(), "SCALING") {
		t.Error("Format missing SCALING row")
	}
}

func TestTable5GeneralizationShape(t *testing.T) {
	r := sharedRunner(t)
	tbl, err := sharedTable(r, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []string{"Large", "Small"} {
		sc := tbl.Get(TechScaling, set)
		mart := tbl.Get(TechMART, set)
		if sc == nil || mart == nil {
			t.Fatalf("missing rows for %s", set)
		}
		// The robustness claim: SCALING degrades less than plain MART
		// when train and test data sizes differ.
		if sc.Result.L1 > mart.Result.L1 {
			t.Errorf("%s: SCALING L1 %.3f worse than MART %.3f", set, sc.Result.L1, mart.Result.L1)
		}
	}
	// MART trained on small data must badly underestimate large data —
	// visible as a large share of R>2 queries relative to SCALING.
	mart := tbl.Get(TechMART, "Large")
	sc := tbl.Get(TechScaling, "Large")
	if mart.Result.Buckets.GT2+1e-9 < sc.Result.Buckets.GT2 {
		t.Errorf("MART R>2 (%.2f) should be at least SCALING's (%.2f) on large test data",
			mart.Result.Buckets.GT2, sc.Result.Buckets.GT2)
	}
	// The numeric pin for CPU. Seeds 1-5 at this runner's size and
	// iterations gave SCALING L1 0.0753 0.0607 0.0635 0.0621 0.0691 and
	// SCALING/MART 0.1891 0.1438 0.1899 0.1373 0.1606 on the Large row;
	// each band is that [min, max] widened by half its width either side.
	checkBand(t, "Table 5 Large SCALING L1", sc.Result.L1, 0.053, 0.083)
	checkBand(t, "Table 5 Large SCALING/MART L1", sc.Result.L1/mart.Result.L1, 0.111, 0.216)
}

// checkBand fails unless lo <= v <= hi.
func checkBand(t *testing.T, what string, v, lo, hi float64) {
	t.Helper()
	if !(v >= lo && v <= hi) {
		t.Errorf("%s = %.4f, outside [%.3f, %.3f]", what, v, lo, hi)
	}
}

func TestTable6CrossWorkloadShape(t *testing.T) {
	r := sharedRunner(t)
	tbl, err := sharedTable(r, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []string{"TPC-DS", "Real-1", "Real-2"} {
		sc := tbl.Get(TechScaling, set)
		if sc == nil {
			t.Fatalf("missing SCALING row for %s", set)
		}
		mart := tbl.Get(TechMART, set)
		// Cross-workload: scaling must not collapse the way plain MART
		// does (the paper's MART L1 errors are 12–78 here).
		if sc.Result.L1 > mart.Result.L1 {
			t.Errorf("%s: SCALING L1 %.3f worse than MART %.3f", set, sc.Result.L1, mart.Result.L1)
		}
	}
}

func TestTable7IncludesOPT(t *testing.T) {
	r := sharedRunner(t)
	tbl, err := sharedTable(r, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := tbl.Get(TechOPT, "TPC-H")
	sc := tbl.Get(TechScaling, "TPC-H")
	if opt == nil || sc == nil {
		t.Fatal("missing OPT/SCALING rows")
	}
	// The optimizer baseline is worse than the learned model.
	if sc.Result.L1 >= opt.Result.L1 {
		t.Errorf("SCALING L1 %.3f not better than OPT %.3f", sc.Result.L1, opt.Result.L1)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("Table 7 has %d rows, want 7", len(tbl.Rows))
	}
}

func TestTable10IOShape(t *testing.T) {
	r := sharedRunner(t)
	tbl, err := sharedTable(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("Table 10 has %d rows, want 4", len(tbl.Rows))
	}
	sc := tbl.Get(TechScaling, "TPC-H")
	if sc.Result.Buckets.LE15 < 0.6 {
		t.Errorf("SCALING I/O R<=1.5 fraction %.2f too low", sc.Result.Buckets.LE15)
	}
}

func TestTable13TrainingTimes(t *testing.T) {
	rows := Table13([]int{2000, 4000}, 50)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Seconds <= 0 || rows[1].Seconds <= 0 {
		t.Fatal("non-positive training times")
	}
	// Training should scale roughly linearly (allow generous slack).
	if rows[1].Seconds > rows[0].Seconds*6 {
		t.Errorf("training time scaled superlinearly: %v -> %v", rows[0].Seconds, rows[1].Seconds)
	}
	if !strings.Contains(FormatTable13(rows, 50), "Training Times") {
		t.Error("FormatTable13 output malformed")
	}
}

func TestFigure1(t *testing.T) {
	r := sharedRunner(t)
	fig := r.Figure1()
	if len(fig.Series) != 2 {
		t.Fatalf("Figure 1 series = %d", len(fig.Series))
	}
	if len(fig.Series[0].X) == 0 {
		t.Fatal("no near-exact-cardinality queries found")
	}
	if !strings.Contains(fig.Format(), "Figure 1") {
		t.Error("Format broken")
	}
}

func TestFigure2HighCorrelation(t *testing.T) {
	r := sharedRunner(t)
	fig, err := r.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if corr := pearson(s.X, s.Y); corr < 0.9 {
		t.Errorf("SCALING estimate/actual correlation %.3f too low", corr)
	}
}

func TestFigures3And6Contrast(t *testing.T) {
	r := sharedRunner(t)
	fig3, err := r.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := r.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	ratio3 := topDecileEstimateRatio(fig3.Series[0])
	ratio6 := topDecileEstimateRatio(fig6.Series[0])
	// Figure 3: on the largest scans the MART-only estimate saturates
	// near the training maximum — a systematically low estimate/actual
	// ratio. Figure 6: scaling restores it to ~1.
	if ratio3 > 0.75 {
		t.Errorf("MART-only top-decile est/actual ratio %.2f; want systematic underestimation", ratio3)
	}
	if ratio6 < 0.7 || ratio6 > 1.4 {
		t.Errorf("scaled top-decile est/actual ratio %.2f; want ~1", ratio6)
	}
	if ratio6 <= ratio3 {
		t.Errorf("scaling did not improve the underestimation: %.2f vs %.2f", ratio6, ratio3)
	}
}

// topDecileEstimateRatio returns the mean estimate/actual ratio over the
// 10% of points with the largest actual values.
func topDecileEstimateRatio(s Series) float64 {
	if len(s.X) == 0 {
		return 0
	}
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	// Selection by actual value, descending.
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if s.X[idx[j]] > s.X[idx[i]] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	k := len(idx) / 10
	if k < 1 {
		k = 1
	}
	var sum float64
	for _, i := range idx[:k] {
		if s.X[i] > 0 {
			sum += s.Y[i] / s.X[i]
		}
	}
	return sum / float64(k)
}

func pearson(x, y []float64) float64 {
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(len(x)), sy/float64(len(y))
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / (sqrt(sxx) * sqrt(syy))
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}

func TestFigure7NLogNWins(t *testing.T) {
	r := sharedRunner(t)
	fig := r.Figure7()
	found := false
	for _, n := range fig.Notes {
		if strings.Contains(n, "best fit: nlogn") {
			found = true
		}
	}
	if !found {
		t.Errorf("Figure 7 best fit not nlogn: %v", fig.Notes)
	}
}

func TestFigure8LogWins(t *testing.T) {
	r := sharedRunner(t)
	fig := r.Figure8()
	found := false
	for _, n := range fig.Notes {
		if strings.Contains(n, "best fit: log") {
			found = true
		}
	}
	if !found {
		t.Errorf("Figure 8 best fit not log in inner size: %v", fig.Notes)
	}
}

func TestPredictionCostSmall(t *testing.T) {
	r := sharedRunner(t)
	sec, err := r.PredictionCost()
	if err != nil {
		t.Fatal(err)
	}
	// §7.3 reports ~0.5µs/call; our budget is well under 1ms.
	if sec <= 0 || sec > 1e-3 {
		t.Errorf("prediction cost %.2e s/call out of range", sec)
	}
}

func TestModelSizeBounded(t *testing.T) {
	r := sharedRunner(t)
	bytes, err := r.ModelSizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	// §7.3: "the set of all models can be stored in a few megabytes".
	if bytes <= 0 || bytes > 16<<20 {
		t.Errorf("model set size %d bytes out of range", bytes)
	}
}

func TestEvaluateClampsNonPositive(t *testing.T) {
	// A technique returning 0 must not produce NaN metrics.
	r := sharedRunner(t)
	_, test := r.SplitTPCH()
	res := evaluate(zeroEstimator{}, test[:4], plan.CPUTime)
	if res.Buckets.GT2 != 1 {
		t.Errorf("zero estimates should land in R>2: %+v", res)
	}
}

type zeroEstimator struct{}

func (zeroEstimator) PredictPlan(*plan.Plan) float64 { return 0 }
