package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Series is one named point series of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproducible figure: point series plus derived statistics.
type Figure struct {
	Name   string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Format prints a compact representation: per-series summary statistics
// and a downsampled point listing.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.Name, f.Title)
	fmt.Fprintf(&b, "x: %s, y: %s\n", f.XLabel, f.YLabel)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, s := range f.Series {
		corr := stats.Pearson(s.X, s.Y)
		fmt.Fprintf(&b, "series %-28s n=%-5d corr=%.3f\n", s.Name, len(s.X), corr)
		step := len(s.X)/8 + 1
		for i := 0; i < len(s.X); i += step {
			fmt.Fprintf(&b, "  %14.2f %14.2f\n", s.X[i], s.Y[i])
		}
	}
	return b.String()
}

// Figure1 — optimizer estimates vs actual CPU time for TPC-H queries
// whose cardinality estimates are near-exact (within 90%–110% at every
// node), showing the error of the hand-constructed cost model itself.
func (r *Runner) Figure1() *Figure {
	var xs, ys []float64
	model := optimizer.DefaultModel()
	for _, q := range r.W.TPCH {
		ok := true
		q.Plan.Walk(func(n *plan.Node) {
			if n.Out.Rows < 1 {
				return
			}
			ratio := n.EstOut.Rows / n.Out.Rows
			if ratio < 0.9 || ratio > 1.1 {
				ok = false
			}
		})
		if !ok {
			continue
		}
		xs = append(xs, model.PlanCost(q.Plan).CPU)
		ys = append(ys, q.Plan.TotalActual().CPU)
	}
	slope := stats.FitScalar(xs, ys)
	var fitX, fitY []float64
	if len(xs) > 0 {
		lo, hi := stats.MinMax(xs)
		fitX = []float64{lo, hi}
		fitY = []float64{slope * lo, slope * hi}
	}
	return &Figure{
		Name:   "Figure 1",
		Title:  "Optimizer estimates can incur significant errors",
		XLabel: "optimizer-estimated CPU cost (units)",
		YLabel: "actual CPU time (ms)",
		Series: []Series{
			{Name: "queries", X: xs, Y: ys},
			{Name: "least-squares line", X: fitX, Y: fitY},
		},
		Notes: []string{fmt.Sprintf("queries with near-exact cardinalities: %d; fitted slope %.3f", len(xs), slope)},
	}
}

// Figure2 — SCALING estimates vs actual CPU time on the TPC-H test
// split: the statistical-techniques counterpart of Figure 1.
func (r *Runner) Figure2() (*Figure, error) {
	train, test := r.SplitTPCH()
	ts, err := TrainTechniques(train, r.cfgFor(plan.CPUTime, features.Exact, []string{TechScaling}))
	if err != nil {
		return nil, err
	}
	m := ts.Models[TechScaling]
	var xs, ys []float64
	for _, p := range test {
		xs = append(xs, p.TotalActual().CPU)
		ys = append(ys, m.PredictPlan(p))
	}
	return &Figure{
		Name:   "Figure 2",
		Title:  "Statistical techniques can improve estimates significantly",
		XLabel: "actual CPU time (ms)",
		YLabel: "estimated CPU time (ms)",
		Series: []Series{{Name: "SCALING estimates", X: xs, Y: ys}},
	}, nil
}

// scanExtrapolationData trains an estimator on the scan operators of
// small-SF queries and evaluates per-scan predictions on large-SF
// queries — the Figures 3/6 setup.
func (r *Runner) scanExtrapolationData(disableScaling bool) (*Figure, error) {
	small, large := r.SplitBySF()
	cfg := core.DefaultConfig()
	cfg.Mart.Iterations = r.Setup.MartIterations
	cfg.DisableScaling = disableScaling
	est, err := core.Train(small, plan.CPUTime, r.ScaleTable, cfg)
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for _, p := range large {
		vecs := features.ExtractPlan(p, features.Exact)
		for i, n := range p.Nodes() {
			if n.Kind != plan.TableScan && n.Kind != plan.IndexScan {
				continue
			}
			om, ok := est.Ops[n.Kind]
			if !ok {
				continue
			}
			xs = append(xs, n.Actual.CPU)
			ys = append(ys, om.PredictVector(&vecs[i]))
		}
	}
	name, title := "Figure 3", "Boosted regression trees do not generalize beyond the training data"
	if !disableScaling {
		name, title = "Figure 6", "Combining MART and Scaling: accuracy for feature values not seen in training"
	}
	res := stats.Evaluate(ys, xs)
	return &Figure{
		Name:   name,
		Title:  title,
		XLabel: "actual scan CPU time (ms)",
		YLabel: "estimated scan CPU time (ms)",
		Series: []Series{{Name: "scan operators (SF>=6)", X: xs, Y: ys}},
		Notes: []string{fmt.Sprintf("train: scans at SF<=4; L1=%.2f, R<=1.5: %.1f%%, R>2: %.1f%%",
			res.L1, res.Buckets.LE15*100, res.Buckets.GT2*100)},
	}, nil
}

// Figure3 — MART-only scan models trained on small scale factors
// systematically underestimate on large ones.
func (r *Runner) Figure3() (*Figure, error) { return r.scanExtrapolationData(true) }

// Figure6 — the same setup with scaling restores accuracy.
func (r *Runner) Figure6() (*Figure, error) { return r.scanExtrapolationData(false) }

// Figure7 — evaluating scaling functions for the CPU consumption of
// sort operators: the n·log n form fits; the quadratic form does not.
func (r *Runner) Figure7() *Figure {
	b := workload.NewBuilder(workload.DBFor("tpch", 2, 1), 1)
	// A wide range is needed to separate n·log n from linear-with-
	// intercept under measurement noise: the log factor changes ~2.3x
	// between the endpoints.
	sizes := workload.GeometricSizes(1e3, 6e6, 18)
	obs := core.RunSweep(r.Engine, workload.SweepSort(b, sizes, 64, 2))
	return sweepFigure("Figure 7", "Scaling functions for sort CPU: n·log n fits with high accuracy",
		"CIN (input tuples)", obs)
}

// Figure8 — evaluating scaling functions for index nested loop joins:
// CPU grows with CIN_outer × log(CIN_inner).
func (r *Runner) Figure8() *Figure {
	b := workload.NewBuilder(workload.DBFor("tpch", 2, 1), 1)
	innerSizes := workload.GeometricSizes(1e4, 1e8, 14)
	pts := workload.SweepNestedLoopInner(b, innerSizes, 50_000)
	obs := make([]core.SweepObservation, 0, len(pts))
	for _, pt := range pts {
		r.Engine.Run(pt.Plan)
		// Total join CPU: the NL node plus its seek inner.
		cpu := pt.Node.Actual.CPU + pt.Node.Children[1].Actual.CPU
		obs = append(obs, core.SweepObservation{Value: pt.Value, CPU: cpu})
	}
	return sweepFigure("Figure 8", "Scaling functions for index nested loop CPU: outer × log(inner) fits best",
		"CIN_inner (inner table tuples)", obs)
}

// sweepFigure builds the observation series plus the best and worst
// fitted candidate curves, as the paper's figures juxtapose them.
func sweepFigure(name, title, xlabel string, obs []core.SweepObservation) *Figure {
	values := make([]float64, len(obs))
	ys := make([]float64, len(obs))
	for i, o := range obs {
		values[i] = o.Value
		ys[i] = o.CPU
	}
	fits := core.FitCurve(values, ys)
	fig := &Figure{
		Name:   name,
		Title:  title,
		XLabel: xlabel,
		YLabel: "CPU time (ms)",
		Series: []Series{{Name: "observed", X: values, Y: ys}},
	}
	for _, fr := range fits {
		curve := Series{Name: fmt.Sprintf("fit %s (relL2=%.3f)", fr.Kind, fr.RelL2)}
		for _, v := range values {
			curve.X = append(curve.X, v)
			curve.Y = append(curve.Y, fr.C+fr.Alpha*evalKind(fr.Kind, v))
		}
		fig.Series = append(fig.Series, curve)
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf("best fit: %s", fits[0].Kind))
	return fig
}

// evalKind exposes single-input scale-form evaluation for curves.
func evalKind(k core.ScaleKind, v float64) float64 {
	fn := core.ScaleFn{Kind: k, F1: 0}
	var vec features.Vector
	vec.Set(0, v)
	return fn.Eval(&vec)
}

// PredictionCost measures the per-call estimation overhead (§7.3),
// returning seconds per operator-level prediction.
func (r *Runner) PredictionCost() (float64, error) {
	train, test := r.SplitTPCH()
	cfg := core.DefaultConfig()
	cfg.Mart.Iterations = r.Setup.MartIterations
	est, err := core.Train(train, plan.CPUTime, r.ScaleTable, cfg)
	if err != nil {
		return 0, err
	}
	var calls int
	for _, p := range test {
		calls += p.NumNodes()
	}
	if calls == 0 {
		return 0, nil
	}
	start := time.Now()
	for _, p := range test {
		est.PredictPlan(p)
	}
	return time.Since(start).Seconds() / float64(calls), nil
}

// ModelSizeBytes trains the full SCALING model set and returns its
// total encoded size (§7.3 memory requirements).
func (r *Runner) ModelSizeBytes() (int, error) {
	train, _ := r.SplitTPCH()
	cfg := core.DefaultConfig()
	cfg.Mart.Iterations = r.Setup.MartIterations
	est, err := core.Train(train, plan.CPUTime, r.ScaleTable, cfg)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, om := range est.Ops {
		for _, c := range om.Candidates {
			total += c.EncodedSize()
		}
	}
	return total, nil
}
