// Command resestimate loads a trained model set and estimates resource
// usage for freshly generated queries, comparing against the simulator's
// actual measurements.
//
// Models come from a single model file (-model) or from the versioned
// model store (-store): the store path loads the newest intact snapshot
// for the schema and evaluates every resource it holds — CPU and I/O —
// in one multi-resource pass that extracts each plan's features once
// and fans them out across the per-resource models.
//
// The whole query set is estimated in one batched pass over the compiled
// tree layout, bit-identical to estimating query by query.
//
// -explain prints, under each query, how its estimate was assembled:
// which MART model scored each operator (or that the fallback mean
// served), the scaled feature vector the model saw, and the operator
// subtotals. The explained total is bit-identical to the estimate.
//
// Usage:
//
//	resestimate -model cpu-model.json -schema tpch -n 20
//	resestimate -model cpu-model.json -schema tpcds -n 20 -pipelines
//	resestimate -model cpu-model.json -schema tpch -n 3 -explain
//	resestimate -store ./models-store -schema tpch -n 20   # all resources
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args (without the program name), writes
// the report to stdout and errors to stderr, and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("resestimate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelPath = fs.String("model", "", "trained model path (see restrain)")
		storeDir  = fs.String("store", "", "versioned model-store directory; loads the newest snapshot for -schema and evaluates all its resources in one pass")
		schema    = fs.String("schema", "tpch", "workload schema for test queries")
		n         = fs.Int("n", 20, "number of test queries")
		seed      = fs.Uint64("seed", 999, "random seed (use a seed different from training)")
		pipelines = fs.Bool("pipelines", false, "also print per-pipeline estimates")
		explain   = fs.Bool("explain", false, "print a per-operator breakdown (model chosen, scaled features, subtotal) under each query")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "resestimate:", err)
		return 1
	}

	if *storeDir != "" && *modelPath != "" {
		return fail(errors.New("-model and -store are mutually exclusive"))
	}
	if *storeDir == "" && *modelPath == "" {
		*modelPath = "model.json"
	}

	qs, err := repro.GenerateWorkload(repro.WorkloadOptions{Schema: *schema, N: *n, Seed: *seed})
	if err != nil {
		return fail(err)
	}
	repro.Execute(qs)

	if *storeDir != "" {
		st, err := repro.OpenModelStore(*storeDir, repro.ModelStoreOptions{Retain: -1})
		if err != nil {
			return fail(err)
		}
		set, man, err := repro.LoadLatestEstimators(st, *schema)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "snapshot v%d (%s, published by %s)\n", man.Version, man.CreatedAt.Format("2006-01-02 15:04:05"), man.Source)
		// One multi-resource pass: features extracted once per node,
		// fanned out across every resource's model.
		preds := set.EstimateQueriesAll(qs)
		for _, res := range set.Resources() {
			fmt.Fprintf(stdout, "\n== %s ==\n", res)
			single := make([]float64, len(qs))
			for i := range qs {
				single[i] = preds[i].Get(res)
			}
			report(stdout, qs, single, set.Estimator(res), *pipelines, *explain)
		}
		return 0
	}

	est, err := repro.LoadFile(*modelPath)
	if err != nil {
		return fail(err)
	}
	report(stdout, qs, est.EstimateQueries(qs), est, *pipelines, *explain)
	return 0
}

// report prints the per-query comparison table and error summary for
// one resource.
func report(w io.Writer, qs []*repro.Query, preds []float64, est *repro.Estimator, pipelines, explain bool) {
	resName := "CPU ms"
	if est.Resource() == repro.LogicalIO {
		resName = "logical reads"
	}
	fmt.Fprintf(w, "%-32s %14s %14s %8s\n", "query", "estimated", "actual", "ratio")
	var ests, truths []float64
	for i, q := range qs {
		pred := preds[i]
		truth := q.Plan.TotalActual().Get(est.Resource())
		ests = append(ests, pred)
		truths = append(truths, truth)
		fmt.Fprintf(w, "%-32s %14.1f %14.1f %8.2f\n", q.Plan.Tag, pred, truth, stats.RatioErr(pred, truth))
		if pipelines {
			for j, v := range est.EstimatePipelines(q.Plan) {
				fmt.Fprintf(w, "    pipeline %d: %.1f %s\n", j, v, resName)
			}
		}
		if explain {
			// Indent the breakdown table under its query row. The
			// explanation's total is bit-identical to the estimate above.
			for _, line := range strings.Split(strings.TrimRight(est.Explain(q.Plan).String(), "\n"), "\n") {
				fmt.Fprintf(w, "    %s\n", line)
			}
		}
	}
	res := stats.Evaluate(ests, truths)
	fmt.Fprintf(w, "\nL1 err %.3f | R<=1.5 %.1f%% | R in (1.5,2] %.1f%% | R>2 %.1f%%\n",
		res.L1, res.Buckets.LE15*100, res.Buckets.Mid*100, res.Buckets.GT2*100)
}
