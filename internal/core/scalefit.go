package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FitResult reports how well one candidate form fits a sweep curve:
// y ≈ α·g(v) + c, fitted by least squares.
type FitResult struct {
	Kind  ScaleKind
	Alpha float64
	C     float64
	// RelL2 is the L2 error normalized by the L2 norm of the
	// observations (lower = better).
	RelL2 float64
}

// FitCurve fits every single-input candidate form to the observations
// (v_i, y_i) and returns the results sorted best-first — the §6.2
// procedure behind Figures 7 and 8.
func FitCurve(values, ys []float64) []FitResult {
	if len(values) != len(ys) || len(values) == 0 {
		panic("core: FitCurve length mismatch")
	}
	var out []FitResult
	var yNorm float64
	for _, y := range ys {
		yNorm += y * y
	}
	yNorm = math.Sqrt(yNorm)
	if yNorm == 0 {
		yNorm = 1
	}
	for _, k := range SingleKinds() {
		g := make([][]float64, len(values))
		for i, v := range values {
			g[i] = []float64{k.evalForm(v, 0)}
		}
		w, err := stats.LeastSquares(g, ys, 1e-9)
		if err != nil {
			continue
		}
		var sse float64
		for i := range g {
			d := stats.PredictLinear(w, g[i]) - ys[i]
			sse += d * d
		}
		out = append(out, FitResult{
			Kind:  k,
			Alpha: w[1],
			C:     w[0],
			RelL2: math.Sqrt(sse) / yNorm,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].RelL2 < out[b].RelL2 })
	return out
}

// scaleKey identifies one (operator, feature, resource) slot in the
// scaling-function table.
type scaleKey struct {
	Op       plan.OpKind
	Feature  features.ID
	Resource plan.ResourceKind
}

// ScaleTable holds the selected scaling-function form per operator,
// feature and resource. Missing entries default to linear scaling, the
// asymptotically correct choice for most per-tuple work.
type ScaleTable struct {
	m map[scaleKey]ScaleKind
}

// NewScaleTable returns an empty table (everything defaults to linear).
func NewScaleTable() *ScaleTable {
	return &ScaleTable{m: make(map[scaleKey]ScaleKind)}
}

// Set records the selected form.
func (t *ScaleTable) Set(op plan.OpKind, f features.ID, r plan.ResourceKind, k ScaleKind) {
	t.m[scaleKey{op, f, r}] = k
}

// Get returns the selected form, defaulting to linear.
func (t *ScaleTable) Get(op plan.OpKind, f features.ID, r plan.ResourceKind) ScaleKind {
	if k, ok := t.m[scaleKey{op, f, r}]; ok {
		return k
	}
	return ScaleLinear
}

// Len returns the number of explicit entries.
func (t *ScaleTable) Len() int { return len(t.m) }

// String lists the explicit entries for reports.
func (t *ScaleTable) String() string {
	type row struct {
		k scaleKey
		v ScaleKind
	}
	rows := make([]row, 0, len(t.m))
	for k, v := range t.m {
		rows = append(rows, row{k, v})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].k.Op != rows[b].k.Op {
			return rows[a].k.Op < rows[b].k.Op
		}
		if rows[a].k.Resource != rows[b].k.Resource {
			return rows[a].k.Resource < rows[b].k.Resource
		}
		return rows[a].k.Feature < rows[b].k.Feature
	})
	s := ""
	for _, r := range rows {
		s += fmt.Sprintf("%s/%s/%s -> %s\n", r.k.Op, r.k.Feature, r.k.Resource, r.v)
	}
	return s
}

// SweepObservation is one executed sweep point: the swept feature value
// and the operator's measured resource usage.
type SweepObservation struct {
	Value float64
	CPU   float64
	IO    float64
}

// RunSweep executes sweep plans and collects the target operator's
// measured resource usage.
func RunSweep(eng *engine.Engine, pts []workload.SweepPoint) []SweepObservation {
	out := make([]SweepObservation, 0, len(pts))
	for _, pt := range pts {
		eng.Run(pt.Plan)
		out = append(out, SweepObservation{
			Value: pt.Value,
			CPU:   pt.Node.Actual.CPU,
			IO:    pt.Node.Actual.IO,
		})
	}
	return out
}

// selectFromSweep fits the candidates on a sweep and records the winner.
func (t *ScaleTable) selectFromSweep(op plan.OpKind, f features.ID, r plan.ResourceKind, obs []SweepObservation) FitResult {
	values := make([]float64, len(obs))
	ys := make([]float64, len(obs))
	for i, o := range obs {
		values[i] = o.Value
		if r == plan.CPUTime {
			ys[i] = o.CPU
		} else {
			ys[i] = o.IO
		}
	}
	fits := FitCurve(values, ys)
	if len(fits) == 0 {
		return FitResult{Kind: ScaleLinear}
	}
	t.Set(op, f, r, fits[0].Kind)
	return fits[0]
}

// SelectScaleFunctions runs the §6.2 selection experiments: for the
// operator/feature combinations with systematic sweep generators, it
// executes the sweeps on the engine, fits all candidate forms and
// records the winner. db supplies the sweep builder's synopses.
func SelectScaleFunctions(eng *engine.Engine, b *workload.Builder) *ScaleTable {
	t := NewScaleTable()
	sizes := workload.GeometricSizes(2e3, 3e6, 14)
	widths := workload.GeometricSizes(12, 1500, 12)

	// CPU sweeps.
	t.selectFromSweep(plan.Sort, features.CIn1, plan.CPUTime,
		RunSweep(eng, workload.SweepSort(b, sizes, 64, 2)))
	t.selectFromSweep(plan.Filter, features.CIn1, plan.CPUTime,
		RunSweep(eng, workload.SweepFilter(b, sizes, 64)))
	t.selectFromSweep(plan.TableScan, features.TSize, plan.CPUTime,
		RunSweep(eng, workload.SweepScan(b, sizes, 64)))
	t.selectFromSweep(plan.TableScan, features.SOutAvg, plan.CPUTime,
		RunSweep(eng, workload.SweepWidth(b, widths, 200_000)))
	// The NL outer sweep stays above the batch-sort threshold so the
	// one-time per-row discount step does not masquerade as curvature.
	t.selectFromSweep(plan.NestedLoopJoin, features.CIn1, plan.CPUTime,
		RunSweep(eng, workload.SweepNestedLoop(b, workload.GeometricSizes(5e4, 5e6, 12), "part")))
	t.selectFromSweep(plan.HashJoin, features.CIn2, plan.CPUTime,
		RunSweep(eng, workload.SweepHashJoin(b, sizes, 10_000)))
	// The per-outer-row descents of an index nested loop are charged to
	// the join node; their cost grows with the B-tree depth, i.e.
	// logarithmically in the inner table size (Figure 8).
	innerPts := workload.SweepNestedLoopInner(b, workload.GeometricSizes(1e4, 1e8, 12), 50_000)
	innerObs := make([]SweepObservation, 0, len(innerPts))
	for _, pt := range innerPts {
		eng.Run(pt.Plan)
		innerObs = append(innerObs, SweepObservation{
			Value: pt.Value, CPU: pt.Node.Actual.CPU, IO: pt.Node.Actual.IO,
		})
	}
	t.selectFromSweep(plan.NestedLoopJoin, features.SSeekTable, plan.CPUTime, innerObs)
	// A standalone seek's descent cost likewise grows with log(TSIZE).
	t.selectFromSweep(plan.IndexSeek, features.TSize, plan.CPUTime,
		RunSweep(eng, workload.SweepSeekTableSize(b, workload.GeometricSizes(1e4, 1e8, 12), 1)))

	// I/O sweeps: scans are page-linear; seeks grow with fetched rows.
	t.selectFromSweep(plan.TableScan, features.TSize, plan.LogicalIO,
		RunSweep(eng, workload.SweepScan(b, sizes, 64)))
	t.selectFromSweep(plan.Sort, features.CIn1, plan.LogicalIO,
		RunSweep(eng, workload.SweepSort(b, workload.GeometricSizes(1e5, 5e6, 10), 200, 2)))
	return t
}

// selectedScales is the table a nil-table TrainSet trains with: the
// §6.2 selection on the default engine, mirrored onto IndexScan. The
// sweep is a pure function of that engine and the fixed tpch sweep
// builder, so one run serves the whole process. Callers only read it.
var selectedScales = sync.OnceValue(func() *ScaleTable {
	t := SelectScaleFunctions(engine.New(nil), workload.NewBuilder(workload.DBFor("tpch", 2, 1), 1))
	t.MirrorScanKinds()
	return t
})

// MirrorScanKinds copies TableScan selections onto IndexScan (the same
// asymptotics apply; the paper trains per physical operator but our
// sweeps cover the representative scan).
func (t *ScaleTable) MirrorScanKinds() {
	for k, v := range t.m {
		if k.Op == plan.TableScan {
			t.Set(plan.IndexScan, k.Feature, k.Resource, v)
		}
	}
}
