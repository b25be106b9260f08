package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// config is one invocation's sizing. The full values are the
// benchmark; quick shrinks every dimension so the smoke test covers
// the same code in about two seconds per workload.
type config struct {
	seed  uint64
	trace bool
	quick bool

	trainN     int // training queries, GenTPCH seed 1
	trainIters int // MART iterations
	heldoutN   int // held-out queries, GenTPCH seed 2
	setupReps  int // set-ups timed per run; setup_s is their median

	warm    time.Duration // closed loop before measuring
	measure time.Duration // untraced measured phase
	traced  time.Duration // traced measured phase (trace runs only)

	// A phase alternates slices of the workload and of the reference
	// load; see pair in workloads.go.
	workSlice, refSlice time.Duration

	probeScale int // divides every layer probe's call count

	scratch string // store snapshots and feedback logs
	outDir  string // envelopes and trace files
}

// schemaName is the schema every single-replica workload asks for. The
// model is published under the registry's wildcard, as a fleet serving
// many schemas from one snapshot would, so fleet_mixed's ring-chosen
// names resolve to the same model.
const schemaName = "tpch"

var bothResources = []plan.ResourceKind{plan.CPUTime, plan.LogicalIO}

func newConfig(seed uint64, seconds float64, trace, quick bool) config {
	cfg := config{
		seed: seed, trace: trace, quick: quick,
		trainN: 2048, trainIters: 200, heldoutN: 512, setupReps: 3,
		warm: 2 * time.Second, probeScale: 1,
		workSlice: 500 * time.Millisecond, refSlice: 250 * time.Millisecond,
	}
	if quick {
		cfg.trainN, cfg.trainIters, cfg.heldoutN, cfg.setupReps = 96, 40, 64, 1
		cfg.warm, cfg.probeScale = 200*time.Millisecond, 10
		cfg.workSlice, cfg.refSlice = 100*time.Millisecond, 50*time.Millisecond
	}
	total := time.Duration(seconds * float64(time.Second))
	if trace {
		// A traced run spends its --seconds on three things: the same
		// untraced loop (the base trace.overhead_pct is taken against),
		// the traced loop, and the one-in-flight probes.
		cfg.measure, cfg.traced = total*3/10, total*3/10
	} else {
		cfg.measure = total
	}
	return cfg
}

// executedPlans generates a TPC-H-shaped workload and runs it through
// the simulated engine, which fills in the true cardinalities the exact
// feature mode reads and the actual resource usage training learns.
func executedPlans(seed uint64, n int, sfs []float64) []*plan.Plan {
	qs := workload.GenTPCH(workload.Config{Seed: seed, N: n, SFs: sfs, Z: 2, Corr: 0.85})
	eng := engine.New(nil)
	plans := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		eng.Run(q.Plan)
		plans[i] = q.Plan
	}
	return plans
}

func countOperators(plans []*plan.Plan) int {
	n := 0
	for _, p := range plans {
		n += p.NumNodes()
	}
	return n
}

// model is what the common set-up leaves behind: the published
// snapshot on disk and its mmap restore, ready to be served.
type model struct {
	storeDir string
	manifest *store.Manifest
	loaded   *store.Loaded
	set      *core.EstimatorSet // the restored models; source of every expected total

	trainOps  int
	trainS    float64
	publishMS float64
	restoreMS float64
}

// buildModel is the part of set-up the program under test does before
// it can answer: train CPU and IO models on the fixed training set,
// publish them through the store (exact slab + JSON) and restore the
// newest snapshot by mmap, as a starting replica would. The training
// seed never varies with --seed.
func buildModel(cfg config, dir string) (*model, error) {
	train := executedPlans(1, cfg.trainN, []float64{1, 2, 4})
	tcfg := core.DefaultConfig()
	tcfg.Mart.Iterations = cfg.trainIters
	tcfg.Workers = runtime.GOMAXPROCS(0)
	start := time.Now()
	set, err := core.TrainSet(train, bothResources, core.NewScaleTable(), tcfg)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	m := &model{storeDir: dir, trainOps: countOperators(train), trainS: time.Since(start).Seconds()}

	pub, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if m.manifest, err = pub.Publish(store.Snapshot{Source: "bench", Models: set}); err != nil {
		return nil, fmt.Errorf("publish: %w", err)
	}
	m.publishMS = millisSince(start)

	// A fresh Store, as a replica process opening the directory would.
	start = time.Now()
	if m.loaded, err = openAndLoad(dir, store.SlabExact); err != nil {
		return nil, err
	}
	m.restoreMS = millisSince(start)
	for _, r := range bothResources {
		if got := m.loaded.Layout[r]; got != "mmap" {
			return nil, fmt.Errorf("restore of %s used layout %q, want mmap", r, got)
		}
	}
	m.set, err = core.NewEstimatorSet(m.loaded.Models[plan.CPUTime], m.loaded.Models[plan.LogicalIO])
	return m, err
}

func openAndLoad(dir string, mode store.SlabMode) (*store.Loaded, error) {
	st, err := store.Open(dir, store.Options{Slab: mode})
	if err != nil {
		return nil, err
	}
	loaded, err := st.LoadLatest("")
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	return loaded, nil
}

// registry publishes the restored models under the wildcard schema.
func (m *model) registry() *serve.Registry {
	reg := serve.NewRegistry()
	for _, r := range bothResources {
		reg.PublishAs("", m.loaded.Models[r], "restore")
	}
	return reg
}

// heldoutL1 is the paper's L1 error of the served CPU model on queries
// at larger scale factors than any it trained on (train-small /
// test-large, Tables 5 and 8). Training and this workload are both
// fixed-seed, so the value is the same on every run of the same code.
func (m *model) heldoutL1(cfg config) float64 {
	held := executedPlans(2, cfg.heldoutN, []float64{6, 8, 10})
	pred := m.loaded.Models[plan.CPUTime].PredictPlans(held)
	actual := make([]float64, len(held))
	for i, p := range held {
		actual[i] = p.TotalActual().Get(plan.CPUTime)
	}
	return stats.Evaluate(pred, actual).L1
}

// timedSetup runs the whole set-up cfg.setupReps times — model build,
// then the workload's listeners — and keeps the last. setup_s is the
// median, so one slow fsync does not decide it. Earlier repetitions
// are closed before the next starts.
func timedSetup(cfg config, spec *workloadSpec) (*model, *target, []float64, error) {
	var times []float64
	for rep := 0; ; rep++ {
		dir := filepath.Join(cfg.scratch, fmt.Sprintf("setup-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, nil, err
		}
		start := time.Now()
		m, err := buildModel(cfg, filepath.Join(dir, "store"))
		if err != nil {
			return nil, nil, nil, err
		}
		tgt, err := spec.start(cfg, m, filepath.Join(dir, "feedback"))
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if rep == cfg.setupReps-1 {
			return m, tgt, times, nil
		}
		tgt.close()
	}
}

func millisSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
