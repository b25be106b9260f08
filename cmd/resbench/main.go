// Command resbench regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	resbench -exp all                 # everything (can take minutes)
//	resbench -exp table4,table7,fig7  # a subset
//	resbench -size 0.25 -iters 200    # smaller/faster run
//
// Experiments: table4..table13, fig1, fig2, fig3, fig6, fig7, fig8,
// predcost, memsize, trainbench, accuracybench, clusterbench,
// coldstartbench. Serving and stream-transport performance is measured
// by the repository's benchmark (go run ./bench; bench/README.md maps
// the former servebench and streambench figures to its metrics).
//
// trainbench times the parallel training pipeline (bootstrap-shaped
// CPU+I/O sweep at 1 worker and at GOMAXPROCS) and writes the
// samples/sec baseline to -train-out (default BENCH_train.json) so the
// training-performance trajectory is tracked across PRs.
//
// accuracybench trains CPU and I/O models on one workload and replays a
// held-out workload (disjoint seed) through the simulator, writing
// per-plan and per-operator signed log-ratio error quantiles and
// ratio-band coverage to -accuracy-out (default BENCH_accuracy.json) —
// the model-quality baseline tracked across PRs, measured with the same
// error histogram the online feedback telemetry exports.
//
// clusterbench stands up 1/2/4 in-process resserve replicas behind the
// schema-affinity router and drives its streaming listener closed-loop
// with per-replica offered load held constant (weak scaling), writing
// estimates/s, p99 and the scaling efficiency vs one replica to
// -cluster-out (default BENCH_cluster.json). -cluster-efficiency-min
// turns the largest fleet's efficiency into a hard guard.
//
// coldstartbench publishes one CPU+I/O snapshot and times restoring it
// three ways — heap (JSON decode + recompile), mmap (zero-copy over the
// exact slab) and quantized (the slab's float32 section) — writing
// restore latency, per-replica private model memory and post-restore
// batch throughput to -coldstart-out (default BENCH_coldstart.json).
// -coldstart-speedup-min turns the mmap-vs-heap restore ratio into a
// hard guard.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiments or 'all'")
		size     = flag.Float64("size", 0.25, "workload size factor (1 = paper-sized)")
		iters    = flag.Int("iters", 200, "MART boosting iterations")
		seed     = flag.Uint64("seed", 1, "random seed")
		t13iters = flag.Int("t13iters", 1000, "boosting iterations for Table 13 timing")
		trainN   = flag.Int("train-n", 128, "trainbench workload size (queries)")
		trainOut = flag.String("train-out", "BENCH_train.json", "trainbench baseline output path (empty = stdout only)")
		accN     = flag.Int("accuracy-n", 128, "accuracybench workload size (queries, train and held-out each)")
		accIt    = flag.Int("accuracy-iters", 60, "accuracybench model MART iterations")
		accOut   = flag.String("accuracy-out", "BENCH_accuracy.json", "accuracybench baseline output path (empty = stdout only)")
		coldN    = flag.Int("coldstart-n", 96, "coldstartbench workload size (queries)")
		coldIt   = flag.Int("coldstart-iters", 100, "coldstartbench model MART iterations")
		coldRnd  = flag.Int("coldstart-rounds", 7, "coldstartbench restore rounds per mode (median taken)")
		coldOut  = flag.String("coldstart-out", "BENCH_coldstart.json", "coldstartbench baseline output path (empty = stdout only)")
		coldMin  = flag.Float64("coldstart-speedup-min", 0, "fail when the mmap restore speedup vs heap decode falls below this (<= 0 disables the guard)")
		cluN     = flag.Int("cluster-n", 64, "clusterbench workload size (queries)")
		cluIt    = flag.Int("cluster-iters", 60, "clusterbench benchmark-model MART iterations")
		cluSch   = flag.Int("cluster-schemas", 4, "clusterbench schemas owned per replica")
		cluConns = flag.Int("cluster-conns", 2, "clusterbench streaming connections per replica's worth of load")
		cluDepth = flag.Int("cluster-depth", 4, "clusterbench in-flight estimates per connection")
		cluReqs  = flag.Int("cluster-reqs", 200, "clusterbench estimates per worker in the timed run")
		cluFlts  = flag.String("cluster-fleets", "1,2,4", "clusterbench comma-separated fleet sizes")
		cluWait  = flag.Duration("cluster-max-wait", 4*time.Millisecond, "clusterbench replica micro-batcher coalescing bound")
		cluOut   = flag.String("cluster-out", "BENCH_cluster.json", "clusterbench baseline output path (empty = stdout only)")
		cluMin   = flag.Float64("cluster-efficiency-min", 0, "fail when the largest fleet's scaling efficiency vs 1 replica falls below this (<= 0 disables the guard)")
	)
	flag.Parse()

	want := map[string]bool{}
	all := *expFlag == "all"
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	sel := func(name string) bool { return all || want[name] }

	needRunner := false
	for _, e := range []string{"table4", "table5", "table6", "table7", "table8", "table9",
		"table10", "table11", "table12", "fig1", "fig2", "fig3", "fig6", "fig7", "fig8",
		"predcost", "memsize", "kcca"} {
		if sel(e) {
			needRunner = true
		}
	}

	var r *experiments.Runner
	if needRunner {
		fmt.Fprintf(os.Stderr, "generating and executing workloads (size=%.2f)...\n", *size)
		r = experiments.NewRunner(experiments.Setup{
			Seed: *seed, SizeFactor: *size, MartIterations: *iters, Noise: -1,
		})
		fmt.Fprintf(os.Stderr, "selected scaling functions:\n%s\n", r.ScaleTable)
	}

	type tableFn struct {
		name string
		fn   func() (*experiments.Table, error)
	}
	if r != nil {
		tables := []tableFn{
			{"table4", r.Table4}, {"table5", r.Table5}, {"table6", r.Table6},
			{"table7", r.Table7}, {"table8", r.Table8}, {"table9", r.Table9},
			{"table10", r.Table10}, {"table11", r.Table11}, {"table12", r.Table12},
		}
		for _, tf := range tables {
			if !sel(tf.name) {
				continue
			}
			fmt.Fprintf(os.Stderr, "running %s...\n", tf.name)
			t, err := tf.fn()
			if err != nil {
				fatal(err)
			}
			fmt.Println(t.Format())
		}
		if sel("fig1") {
			fmt.Println(r.Figure1().Format())
		}
		if sel("fig2") {
			f, err := r.Figure2()
			if err != nil {
				fatal(err)
			}
			fmt.Println(f.Format())
		}
		if sel("fig3") {
			f, err := r.Figure3()
			if err != nil {
				fatal(err)
			}
			fmt.Println(f.Format())
		}
		if sel("fig6") {
			f, err := r.Figure6()
			if err != nil {
				fatal(err)
			}
			fmt.Println(f.Format())
		}
		if sel("fig7") {
			fmt.Println(r.Figure7().Format())
		}
		if sel("fig8") {
			fmt.Println(r.Figure8().Format())
		}
		if sel("kcca") {
			res, err := r.RelatedWorkKCCA()
			if err != nil {
				fatal(err)
			}
			fmt.Println(res.Format())
		}
		if sel("predcost") {
			sec, err := r.PredictionCost()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("Prediction cost (§7.3): %.3g µs per operator-level costing call\n\n", sec*1e6)
		}
		if sel("memsize") {
			bytes, err := r.ModelSizeBytes()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("Model set size (§7.3): %.2f KB total across all candidate models\n\n",
				float64(bytes)/1024)
		}
	}
	if sel("table13") {
		fmt.Fprintln(os.Stderr, "running table13 (MART training times)...")
		rows := experiments.Table13(nil, *t13iters)
		fmt.Println(experiments.FormatTable13(rows, *t13iters))
	}
	if sel("trainbench") {
		fmt.Fprintln(os.Stderr, "running trainbench (parallel training throughput)...")
		tb, err := experiments.RunTrainBench(*trainN, *iters)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Training throughput (%d queries, %d samples, %d iterations):\n",
			tb.Queries, tb.Samples, tb.Iterations)
		for _, run := range tb.Runs {
			fmt.Printf("  workers=%-3d %8.2f samples/s  (%.2fs, %.2fx vs sequential)\n",
				run.Workers, run.SamplesPerSec, run.Seconds, run.SpeedupVsSequential)
		}
		if *trainOut != "" {
			data, err := json.MarshalIndent(tb, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*trainOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote training baseline to %s\n", *trainOut)
		}
	}
	if sel("accuracybench") {
		fmt.Fprintln(os.Stderr, "running accuracybench (held-out model accuracy)...")
		ab, err := experiments.RunAccuracyBench(*accN, *accIt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Held-out accuracy (%d train / %d held-out queries, %d iterations):\n",
			ab.TrainQueries, ab.HoldoutQueries, ab.Iterations)
		for _, r := range ab.Resources {
			p := r.Plan
			fmt.Printf("  %-4s plan  err p50 %+.3f  p90 %+.3f  p99 %+.3f  | within 1.5x %.1f%%  2x %.1f%%\n",
				r.Resource, p.ErrP50, p.ErrP90, p.ErrP99, p.Within15x*100, p.Within2x*100)
			for _, op := range r.Operators {
				fmt.Printf("       %-14s n=%-5d err p50 %+.3f  p90 %+.3f  | within 2x %.1f%%\n",
					op.Op, op.Count, op.ErrP50, op.ErrP90, op.Within2x*100)
			}
		}
		if *accOut != "" {
			data, err := json.MarshalIndent(ab, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*accOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote accuracy baseline to %s\n", *accOut)
		}
	}
	if sel("clusterbench") {
		var fleets []int
		for _, part := range strings.Split(*cluFlts, ",") {
			var f int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &f); err != nil || f <= 0 {
				fatal(fmt.Errorf("bad -cluster-fleets entry %q", part))
			}
			fleets = append(fleets, f)
		}
		fmt.Fprintln(os.Stderr, "running clusterbench (router + replica-fleet scaling)...")
		cb, err := experiments.RunClusterBench(*cluN, *cluIt, *cluSch, *cluConns, *cluDepth, *cluReqs, fleets, *cluWait)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Replica scaling (%d plans, %d operators, %d schemas/replica, %d×%d workers/replica, replica max-wait %.0f µs):\n",
			cb.Queries, cb.Operators, cb.SchemasPerReplica, cb.ConnsPerReplica, cb.PipelineDepth, cb.MaxWaitMicros)
		for _, f := range cb.Fleets {
			fmt.Printf("  replicas=%-2d %9.0f est/s  %9.0f est/s/replica  eff %.2f  (p50 %.0f µs, p99 %.0f µs, spill %d, shed %d)\n",
				f.Replicas, f.EstPerSec, f.PerReplicaPerSec, f.Efficiency,
				f.P50Micros, f.P99Micros, f.Spillover, f.Shed)
		}
		if *cluOut != "" {
			data, err := json.MarshalIndent(cb, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*cluOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote cluster baseline to %s\n", *cluOut)
		}
		if *cluMin > 0 && cb.EfficiencyAtMax < *cluMin {
			fatal(fmt.Errorf("cluster scaling efficiency %.2f at %d replicas below the %.2f guard",
				cb.EfficiencyAtMax, cb.Fleets[len(cb.Fleets)-1].Replicas, *cluMin))
		}
	}
	if sel("coldstartbench") {
		fmt.Fprintln(os.Stderr, "running coldstartbench (heap vs mmap vs quantized restore)...")
		cb, err := experiments.RunColdStartBench(*coldN, *coldIt, *coldRnd)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Cold start (%d plans, %d operators, %d iterations; snapshot %s JSON / %s slab):\n",
			cb.Queries, cb.Operators, cb.Iterations,
			fmtKB(cb.ModelFileBytes), fmtKB(cb.SlabFileBytes))
		for _, m := range cb.Modes {
			fmt.Printf("  %-10s restore %8.3f ms  private %8s  %9.0f plans/s  (%s)\n",
				m.Mode, m.RestoreMillis, fmtKB(m.PrivateModelBytes),
				m.BatchPlansPerSec, strings.Join(m.Layouts, ","))
		}
		fmt.Printf("  mmap restore speedup vs heap: %.1fx\n", cb.MmapSpeedup)
		if *coldOut != "" {
			data, err := json.MarshalIndent(cb, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*coldOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote cold-start baseline to %s\n", *coldOut)
		}
		if *coldMin > 0 && cb.MmapSpeedup < *coldMin {
			fatal(fmt.Errorf("mmap restore speedup %.1fx below the %.1fx guard",
				cb.MmapSpeedup, *coldMin))
		}
	}
}

func fmtKB(b int64) string {
	return fmt.Sprintf("%.1f KB", float64(b)/1024)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "resbench:", err)
	os.Exit(1)
}
