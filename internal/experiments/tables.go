package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/features"
	"repro/internal/mart"
	"repro/internal/plan"
	"repro/internal/xrand"
)

// tableSetups are the rows of the paper's Tables 4–12 grid: the
// resource, feature mode and title label of each model setup.
var tableSetups = [3]struct {
	resource plan.ResourceKind
	mode     features.Mode
	label    string
}{
	{plan.CPUTime, features.Exact, "exact features"},
	{plan.CPUTime, features.Estimated, "optimizer-estimated features"},
	{plan.LogicalIO, features.Estimated, "I/O operations"}, // the §7.2 setup
}

// Table runs the paper's Table n, for n in 4–12. The nine tables are a
// 3×3 grid. Row (n−4)/3 is the model setup: CPU on exact features, CPU
// on optimizer-estimated features (which adds OPT), logical I/O (the
// four techniques of §7.2). Column (n−4)%3 is the test scenario: the
// 80/20 TPC-H split; small scale factors against large and the reverse,
// both runs' rows in one table; TPC-H against TPC-DS, Real-1 and
// Real-2.
func (r *Runner) Table(n int) (*Table, error) {
	if n < 4 || n > 12 {
		return nil, fmt.Errorf("experiments: no Table %d in the grid of Tables 4–12", n)
	}
	setup := tableSetups[(n-4)/3]
	techs := cpuTechniques(setup.mode)
	if setup.resource == plan.LogicalIO {
		techs = ioTechniques()
	}
	cfg := r.cfgFor(setup.resource, setup.mode, techs)

	// Each run is one training set and the test sets it is scored on.
	type tableRun struct {
		train []*plan.Plan
		tests map[string][]*plan.Plan
	}
	var title string
	var runs []tableRun
	switch (n - 4) % 3 {
	case 0:
		train, test := r.SplitTPCH()
		title = "Training and Testing on TPC-H"
		runs = []tableRun{{train, map[string][]*plan.Plan{"TPC-H": test}}}
	case 1:
		small, large := r.SplitBySF()
		title = "Training on TPC-H, Testing with different Data Distributions"
		runs = []tableRun{
			{small, map[string][]*plan.Plan{"Large": large}},
			{large, map[string][]*plan.Plan{"Small": small}},
		}
	case 2:
		title = "Training on TPC-H, Testing on different Workloads/Data"
		runs = []tableRun{{Plans(r.W.TPCH), map[string][]*plan.Plan{
			"TPC-DS": Plans(r.W.TPCDS),
			"Real-1": Plans(r.W.Real1),
			"Real-2": Plans(r.W.Real2),
		}}}
	}
	out := &Table{Name: fmt.Sprintf("Table %d", n), Title: fmt.Sprintf("%s (%s)", title, setup.label)}
	for _, run := range runs {
		t, err := r.runTable("", "", run.train, run.tests, cfg)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, t.Rows...)
	}
	return out, nil
}

// Table13Result is one row of the training-time table.
type Table13Result struct {
	Examples int
	Seconds  float64
}

// Table13 — MART training times vs number of training examples (§7.3).
// sizes defaults to the paper's 5K..160K doubling series; iterations to
// the paper's M = 1K.
func Table13(sizes []int, iterations int) []Table13Result {
	if len(sizes) == 0 {
		sizes = []int{5000, 10000, 20000, 40000, 80000, 160000}
	}
	if iterations <= 0 {
		iterations = 1000
	}
	// Synthetic operator-like training data: 10 features, a nonlinear
	// target, matching the dimensionality of the operator models.
	rng := xrand.New(99)
	gen := func(n int) ([][]float64, []float64) {
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			row := make([]float64, 10)
			for f := range row {
				row[f] = rng.Range(0, 1000)
			}
			xs[i] = row
			ys[i] = row[0]*2 + row[1]*row[1]/500 + row[2]
			if row[3] > 500 {
				ys[i] += 300
			}
		}
		return xs, ys
	}
	var out []Table13Result
	for _, n := range sizes {
		xs, ys := gen(n)
		cfg := mart.DefaultConfig()
		cfg.Iterations = iterations
		start := time.Now()
		if _, err := mart.Train(xs, ys, cfg); err != nil {
			panic(err)
		}
		out = append(out, Table13Result{Examples: n, Seconds: time.Since(start).Seconds()})
	}
	return out
}

// FormatTable13 renders the training-time rows.
func FormatTable13(rows []Table13Result, iterations int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 13 — Training Times (seconds) for M=%d boosting iterations\n", iterations)
	fmt.Fprintf(&b, "%-12s", "Examples")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9d", r.Examples)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-12s", "Time (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9.2f", r.Seconds)
	}
	b.WriteByte('\n')
	return b.String()
}
