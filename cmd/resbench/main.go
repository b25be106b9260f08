// Command resbench regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	resbench -exp all                 # everything (can take minutes)
//	resbench -exp table4,table7,fig7  # a subset
//	resbench -size 0.25 -iters 200    # smaller/faster run
//
// resbench -h lists the experiments. Performance — training, restore,
// serving, transport and fleet — is measured by the repository's
// benchmark (go run ./bench; bench/README.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

// experiment is one selectable table or figure: run returns its
// formatted result, and gets a nil runner unless needsRunner. The -exp
// help text, the decision to build the shared runner and the dispatch
// loop are all derived from experimentTable.
type experiment struct {
	name        string
	needsRunner bool
	run         func(r *experiments.Runner, cfg config) (string, error)
}

// experimentTable lists the experiments in the order they run: the
// grid of Tables 4–12 first.
var experimentTable = append(gridTables(), []experiment{
	{"fig1", true, func(r *experiments.Runner, _ config) (string, error) { return r.Figure1().Format(), nil }},
	{"fig2", true, formatted((*experiments.Runner).Figure2)},
	{"fig3", true, formatted((*experiments.Runner).Figure3)},
	{"fig6", true, formatted((*experiments.Runner).Figure6)},
	{"fig7", true, func(r *experiments.Runner, _ config) (string, error) { return r.Figure7().Format(), nil }},
	{"fig8", true, func(r *experiments.Runner, _ config) (string, error) { return r.Figure8().Format(), nil }},
	{"kcca", true, formatted((*experiments.Runner).RelatedWorkKCCA)},
	{"predcost", true, func(r *experiments.Runner, _ config) (string, error) {
		sec, err := r.PredictionCost()
		return fmt.Sprintf("Prediction cost (§7.3): %.3g µs per operator-level costing call\n", sec*1e6), err
	}},
	{"memsize", true, func(r *experiments.Runner, _ config) (string, error) {
		bytes, err := r.ModelSizeBytes()
		return fmt.Sprintf("Model set size (§7.3): %.2f KB total across all candidate models\n", float64(bytes)/1024), err
	}},
	{"table13", false, func(_ *experiments.Runner, cfg config) (string, error) {
		return experiments.FormatTable13(experiments.Table13(nil, cfg.t13iters), cfg.t13iters), nil
	}},
}...)

// gridTables is one experiment, table4 to table12, per table of the
// runner's grid.
func gridTables() []experiment {
	var out []experiment
	for n := 4; n <= 12; n++ {
		out = append(out, experiment{fmt.Sprintf("table%d", n), true,
			formatted(func(r *experiments.Runner) (*experiments.Table, error) { return r.Table(n) })})
	}
	return out
}

// formatted adapts a runner method returning a table or figure.
func formatted[T interface{ Format() string }](f func(*experiments.Runner) (T, error)) func(*experiments.Runner, config) (string, error) {
	return func(r *experiments.Runner, _ config) (string, error) {
		res, err := f(r)
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	}
}

// experimentNames is the comma-separated list of experimentTable's names.
func experimentNames() string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

// selectExperiments resolves an -exp value to rows of experimentTable,
// in table order.
func selectExperiments(spec string) ([]experiment, error) {
	if spec == "all" {
		return experimentTable, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var sel []experiment
	for _, e := range experimentTable {
		if want[e.name] {
			sel = append(sel, e)
			delete(want, e.name)
		}
	}
	for name := range want {
		return nil, fmt.Errorf("unknown experiment %q in -exp (valid: all, %s)", name, experimentNames())
	}
	return sel, nil
}

// config is the parsed command line.
type config struct {
	selected []experiment
	setup    experiments.Setup
	t13iters int
}

// parseFlags parses args (without the program name). Usage and errors
// go to stderr.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("resbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag  = fs.String("exp", "all", "comma-separated experiments or 'all': "+experimentNames())
		size     = fs.Float64("size", 0.25, "workload size factor (1 = paper-sized)")
		iters    = fs.Int("iters", 200, "MART boosting iterations")
		seed     = fs.Uint64("seed", 1, "random seed")
		t13iters = fs.Int("t13iters", 1000, "boosting iterations for Table 13 timing")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	selected, err := selectExperiments(*expFlag)
	if err != nil {
		fmt.Fprintln(stderr, "resbench:", err)
		return config{}, err
	}
	return config{
		selected: selected,
		setup:    experiments.Setup{Seed: *seed, SizeFactor: *size, MartIterations: *iters, Noise: -1},
		t13iters: *t13iters,
	}, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "resbench:", err)
		os.Exit(1)
	}
}

// run executes the selected experiments, writing each formatted result
// to stdout and progress to stderr.
func run(cfg config, stdout, stderr io.Writer) error {
	var r *experiments.Runner
	for _, e := range cfg.selected {
		if e.needsRunner && r == nil {
			fmt.Fprintf(stderr, "generating and executing workloads (size=%.2f)...\n", cfg.setup.SizeFactor)
			r = experiments.NewRunner(cfg.setup)
			fmt.Fprintf(stderr, "selected scaling functions:\n%s\n", r.ScaleTable)
		}
		fmt.Fprintf(stderr, "running %s...\n", e.name)
		out, err := e.run(r, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(stdout, out)
	}
	return nil
}
