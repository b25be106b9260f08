// Command restrain generates a workload, executes it on the simulator
// and trains a SCALING resource estimator, saving the model set to disk.
//
// Usage:
//
//	restrain -out cpu-model.json                     # CPU estimator
//	restrain -resource io -out io-model.json          # logical-I/O estimator
//	restrain -schema tpch -n 1024 -iters 500 -out m.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args (without the program name), writes
// the result line to stdout and progress and errors to stderr, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("restrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schema   = fs.String("schema", "tpch", "workload schema: tpch, tpcds, real1, real2")
		n        = fs.Int("n", 512, "number of training queries")
		seed     = fs.Uint64("seed", 1, "random seed")
		resource = fs.String("resource", "cpu", "resource to model: cpu or io")
		iters    = fs.Int("iters", 300, "MART boosting iterations")
		estFeat  = fs.Bool("estimated-features", false, "train on optimizer-estimated features")
		out      = fs.String("out", "model.json", "output model path")
		workers  = fs.Int("train-workers", 0, "training worker pool size (0 = GOMAXPROCS); the trained model is bit-identical at any worker count")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "restrain:", err)
		return 1
	}

	res := repro.CPUTime
	if *resource == "io" {
		res = repro.LogicalIO
	} else if *resource != "cpu" {
		return fail(fmt.Errorf("unknown resource %q", *resource))
	}

	fmt.Fprintf(stderr, "generating %d %s queries...\n", *n, *schema)
	qs, err := repro.GenerateWorkload(repro.WorkloadOptions{
		Schema: *schema, N: *n, Seed: *seed,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stderr, "executing workload on the engine simulator...")
	repro.Execute(qs)

	fmt.Fprintln(stderr, "training estimator (incl. scaling-function selection)...")
	start := time.Now()
	est, err := repro.Train(qs, repro.TrainOptions{
		Resource:             res,
		BoostingIterations:   *iters,
		UseEstimatedFeatures: *estFeat,
		Workers:              *workers,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "trained in %.2fs\n", time.Since(start).Seconds())

	if err := est.SaveFile(*out); err != nil {
		return fail(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "saved %s estimator to %s (%.1f KB)\n", *resource, *out, float64(info.Size())/1024)
	return 0
}
