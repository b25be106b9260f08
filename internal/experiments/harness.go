package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/svm"
	"repro/internal/workload"
)

// Setup controls one full run of the evaluation.
type Setup struct {
	Seed uint64
	// SizeFactor scales workload sizes (1 = paper-sized: 2560 TPC-H
	// queries etc.). Tests use small fractions.
	SizeFactor float64
	// MartIterations for MART/SCALING (the paper uses 1000; accuracy on
	// the simulated substrate saturates much earlier).
	MartIterations int
	// Noise overrides the engine noise (negative = keep default).
	Noise float64
}

// Runner owns the executed workloads and the §6.2 scale table, shared
// across all experiments of one run.
type Runner struct {
	Setup  Setup
	Engine *engine.Engine
	// Workloads, already executed (Actual filled in).
	W          *workload.StandardWorkloads
	ScaleTable *core.ScaleTable
}

// NewRunner generates and executes all workloads and runs the
// scaling-function selection experiments.
func NewRunner(s Setup) *Runner {
	prof := engine.DefaultProfile()
	prof.Seed = s.Seed ^ 0xE49
	if s.Noise >= 0 {
		prof.NoiseCV = s.Noise
	}
	eng := engine.New(prof)
	w := workload.GenStandard(s.Seed, s.SizeFactor)
	for _, qs := range [][]*workload.Query{w.TPCH, w.TPCDS, w.Real1, w.Real2} {
		for _, q := range qs {
			eng.Run(q.Plan)
		}
	}
	b := workload.NewBuilder(workload.DBFor("tpch", 2, 1), 1)
	tbl := core.SelectScaleFunctions(eng, b)
	tbl.MirrorScanKinds()
	return &Runner{Setup: s, Engine: eng, W: w, ScaleTable: tbl}
}

// Plans extracts the plan list of a query list.
func Plans(qs []*workload.Query) []*plan.Plan {
	out := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		out[i] = q.Plan
	}
	return out
}

// SplitTPCH returns the 80/20 train/test split used by Tables 4/7/10.
func (r *Runner) SplitTPCH() (train, test []*plan.Plan) {
	ps := Plans(r.W.TPCH)
	cut := len(ps) * 8 / 10
	return ps[:cut], ps[cut:]
}

// SplitBySF partitions the TPC-H workload into small (SF ≤ 4) and large
// (SF ≥ 6) halves — the Tables 5/8/11 setup.
func (r *Runner) SplitBySF() (small, large []*plan.Plan) {
	for _, q := range r.W.TPCH {
		if q.SF <= 4 {
			small = append(small, q.Plan)
		} else {
			large = append(large, q.Plan)
		}
	}
	return small, large
}

// Row is one table row: a technique evaluated on a test set.
type Row struct {
	Technique string
	TestSet   string
	Result    stats.EvalResult
}

// Table is a formatted experiment result.
type Table struct {
	Name  string
	Title string
	Rows  []Row
}

// evaluate scores a technique on test plans.
func evaluate(m PlanEstimator, test []*plan.Plan, r plan.ResourceKind) stats.EvalResult {
	est := make([]float64, len(test))
	truth := make([]float64, len(test))
	for i, p := range test {
		e := m.PredictPlan(p)
		// Floor estimates at one resource unit (1 ms / 1 logical read):
		// a plan cannot consume less, and techniques that emit zero or
		// negative estimates would otherwise explode the L1 metric by
		// the clamping artifact rather than by their actual error.
		if e < 1 {
			e = 1
		}
		est[i] = e
		truth[i] = p.TotalActual().Get(r)
	}
	return stats.Evaluate(est, truth)
}

// techniqueOrder fixes row ordering to match the paper's tables.
var techniqueOrder = map[string]int{
	TechOPT: 0, TechAkdere: 1, TechLinear: 2, TechMART: 3,
	TechSVM: 4, TechRegTree: 5, TechScaling: 6, TechKCCA: 7,
}

// runTable trains the techniques and evaluates them on each test set.
func (r *Runner) runTable(name, title string, train []*plan.Plan,
	tests map[string][]*plan.Plan, cfg TrainConfig) (*Table, error) {

	ts, err := TrainTechniques(train, cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Title: title}
	var sets []string
	for s := range tests {
		sets = append(sets, s)
	}
	sort.Strings(sets)
	for _, set := range sets {
		for tech, m := range ts.Models {
			t.Rows = append(t.Rows, Row{
				Technique: tech,
				TestSet:   set,
				Result:    evaluate(m, tests[set], cfg.Resource),
			})
		}
	}
	sort.SliceStable(t.Rows, func(a, b int) bool {
		if t.Rows[a].TestSet != t.Rows[b].TestSet {
			return t.Rows[a].TestSet < t.Rows[b].TestSet
		}
		return techniqueOrder[t.Rows[a].Technique] < techniqueOrder[t.Rows[b].Technique]
	})
	return t, nil
}

// Format renders the table in the paper's layout.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Name, t.Title)
	fmt.Fprintf(&b, "%-10s %-10s %8s %9s %12s %8s\n",
		"Technique", "Test Set", "L1 Err", "R<=1.5", "R in [1.5,2]", "R>2")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-10s %-10s %8.2f %8.2f%% %11.2f%% %7.2f%%\n",
			row.Technique, row.TestSet, row.Result.L1,
			row.Result.Buckets.LE15*100, row.Result.Buckets.Mid*100, row.Result.Buckets.GT2*100)
	}
	return b.String()
}

// Get returns the row for a technique and test set, or nil.
func (t *Table) Get(tech, set string) *Row {
	for i := range t.Rows {
		if t.Rows[i].Technique == tech && t.Rows[i].TestSet == set {
			return &t.Rows[i]
		}
	}
	return nil
}

// cpuTechniques are the rows of the CPU tables (4–9).
func cpuTechniques(mode features.Mode) []string {
	ts := []string{TechAkdere, TechLinear, TechMART, TechSVM, TechRegTree, TechScaling}
	if mode == features.Estimated {
		return append([]string{TechOPT}, ts...)
	}
	return ts
}

// ioTechniques are the rows of the I/O tables (10–12): the four
// best-performing models per §7.2.
func ioTechniques() []string {
	return []string{TechAkdere, TechLinear, TechSVM, TechScaling}
}

// cfgFor assembles a TrainConfig for a table experiment.
func (r *Runner) cfgFor(resource plan.ResourceKind, mode features.Mode, techs []string) TrainConfig {
	var kernel svm.Kernel = svm.PolyKernel{Degree: 1}
	if resource == plan.LogicalIO {
		kernel = svm.RBFKernel{Gamma: 0.05}
	}
	return TrainConfig{
		Resource:       resource,
		Mode:           mode,
		MartIterations: r.Setup.MartIterations,
		SVMKernel:      kernel,
		ScaleTable:     r.ScaleTable,
		Techniques:     techs,
	}
}
