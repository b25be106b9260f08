// Command bench is the repository's benchmark: it trains a model,
// publishes and restores it through the store, stands up the real
// listeners in-process on loopback and drives them closed-loop as a
// client would, checking every answer. BENCHMARK.json names its
// workloads and metrics; README.md in this directory explains them.
//
//	go run ./bench --workload stream_hot --seed 1 --seconds 20 --trace 0
//	go run ./bench -selfcheck
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/stream"
)

// gcPercent is the GOGC the benchmark process runs at. The replicas'
// live heap is a few MB, so at the default 100 the collector's 4 MB
// floor has it run 40-60 cycles a second under these loops, and a GC
// cycle — memory-bound marking, stop-the-world handshakes between the
// vCPUs — is the part of the process a busy neighbour slows most: in
// interleaved runs on the same seed, cpu_us_per_plan ranged 64-85
// (stream_hot) and 97-127 (batch_cold) at 100 against 66-73 and 101-112
// at 400, and 1600 was no steadier. 400 is a 16 MB heap floor, about ten
// cycles a second; proc.gc_cycles and proc.gc_pause_ms report what is
// left. It is set here, not in the program under test.
const gcPercent = 400

func main() {
	debug.SetGCPercent(gcPercent)
	workloadName := flag.String("workload", "", "workload to run: stream_hot, batch_cold, http_loop or fleet_mixed")
	seed := flag.Uint64("seed", 1, "seed the request pool is generated from (the training seed is fixed)")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	quick := flag.Bool("quick", false, "smoke sizes: small model, short phases, fewer probe calls")
	out := flag.String("out", "", "also write the result envelope to this file")
	doCompare := flag.Bool("compare", false, "compare two result files given as arguments; exit 1 if any metric regressed")
	doSelfcheck := flag.Bool("selfcheck", false, "run every workload twice and check the two sets agree within the bounds")
	flag.Parse()

	if err := dispatch(*workloadName, *seed, *seconds, *trace != 0, *quick, *out, *doCompare, *doSelfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(workloadName string, seed uint64, seconds float64, trace, quick bool, out string, doCompare, doSelfcheck bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	switch {
	case doCompare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		before, err := readEnvelope(flag.Arg(0))
		if err != nil {
			return err
		}
		after, err := readEnvelope(flag.Arg(1))
		if err != nil {
			return err
		}
		regressed, err := compare(os.Stdout, spec, before, after)
		if err == nil && regressed {
			err = errors.New("at least one metric regressed")
		}
		return err
	case doSelfcheck:
		if out == "" {
			out = filepath.Join(outDir, "selfcheck.json")
		}
		return selfcheck(os.Stdout, spec, seed, seconds, outDir, out)
	}

	wl := findWorkload(workloadName)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	cfg := newConfig(seed, seconds, trace, quick)
	cfg.outDir = outDir
	if cfg.scratch, err = makeScratch(outDir); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.scratch)

	res, runErr := runWorkload(cfg, wl)
	if res == nil {
		return runErr
	}
	env := newEnvelope(cfg)
	for i := range res.Metrics {
		res.Metrics[i].Unit = spec.unit(res.Metrics[i].Name)
	}
	env.Workloads = []workloadResult{*res}
	kind := "gated"
	if trace {
		kind = "traced"
	}
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", wl.name, kind)), env); err != nil {
		return err
	}
	if out != "" {
		if err := writeJSON(out, env); err != nil {
			return err
		}
	}
	if err := printResult(spec, res, trace, runErr == nil); err != nil {
		return err
	}
	return runErr
}

func makeScratch(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "scratch-")
}

func (s *benchSpec) unit(name string) string {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// printResult writes the line the driver reads: the end-to-end metrics
// of a gated run, or the per-layer metrics of a traced one.
func printResult(spec *benchSpec, res *workloadResult, trace, correct bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Metrics: make(map[string]value)}
	for _, ph := range res.Phases {
		if ph.Name != "warm" {
			line.Attempted += ph.Attempted
			line.Failed += ph.Failed
		}
	}
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	for _, ms := range want {
		m, ok := res.metric(ms.Name)
		if !ok {
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", ms.Name)
		}
		line.Metrics[ms.Name] = value{m.Value, ms.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// counters are the program's own counts, read through public accessors
// before and after the measured phase.
type counters struct {
	stream      stream.Stats
	cacheHits   uint64
	cacheMisses uint64
	router      cluster.Metrics
}

func readCounters(tgt *target) counters {
	var c counters
	for _, r := range tgt.replicas {
		st := r.ss.Stats()
		c.stream.Requests += st.Requests
		c.stream.Dispatches += st.Dispatches
		c.stream.Holds += st.Holds
		cache := r.svc.Metrics().Cache
		c.cacheHits += cache.Hits
		c.cacheMisses += cache.Misses
	}
	if tgt.router != nil {
		c.router = tgt.router.Metrics()
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runWorkload is one invocation: set up, warm, measure, and — for a
// traced run — trace, reconcile and probe the layers. The result is
// returned even when the run is judged incorrect, so the numbers behind
// the verdict are on record.
func runWorkload(cfg config, wl *workloadSpec) (*workloadResult, error) {
	m, tgt, setupTimes, err := timedSetup(cfg, wl)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer tgt.close()
	p, err := wl.buildPool(cfg, m, tgt)
	if err != nil {
		return nil, fmt.Errorf("request pool: %w", err)
	}
	ls, err := openLoop(wl, tgt, p)
	if err != nil {
		return nil, err
	}
	defer ls.close()

	served := func() uint64 {
		mod, _ := tgt.reg.Lookup(schemaName, plan.CPUTime)
		return mod.Info.Version
	}
	versionAtStart := served()

	ms := make(metrics)
	res := &workloadResult{Name: wl.name, RequestHash: p.hash}
	phase := func(ph phaseResult) {
		res.Phases = append(res.Phases, phaseCount{ph.name, ph.attempted, ph.attempted - ph.failed, ph.failed})
	}

	warm := ls.run("warm", cfg, cfg.warm, nil)
	phase(warm)
	before := readCounters(tgt)
	measured := ls.run("measure", cfg, cfg.measure, nil)
	after := readCounters(tgt)
	phase(measured)
	failures := []phaseResult{warm, measured}

	series := seriesOf(measured.pairs)
	ms.setDist("rel_plans_per_s", series.relRate)
	ms.setDist("rel_lat_p50", series.relLat)
	ms.setDist("rel_cpu_per_plan", series.relCPU)
	ms.setDist("client.plans_per_s", series.rate)
	ms.setDist("client.cpu_us_per_plan", series.cpu)
	ms.setDist("ref.ops_per_s", series.refRate)
	ms.setDist("ref.cpu_us_per_op", series.refCPU)
	ms.setDist("ref.lat_p50_us", series.refLat)
	lat := summarizeLatencies(measured.latencies)
	ms["client.lat_p50_us"] = metric{Name: "client.lat_p50_us", Value: lat.p50, N: lat.n, Q1: lat.q1, Q3: lat.q3}
	ms["client.lat_p99_us"] = metric{Name: "client.lat_p99_us", Value: lat.tail, N: lat.n, Q1: lat.tail, Q3: lat.tail}
	res.TailPct = lat.pct
	ms.setDist("setup_s", setupTimes)
	ms.set("heldout_l1", m.heldoutL1(cfg))
	layerCounters(ms, m, measured, before, after)

	if cfg.trace {
		rp := newReplayer(wl, tgt, p, m)
		traced := ls.run("traced", cfg, cfg.traced, rp)
		phase(traced)
		failures = append(failures, traced)
		ms.set("trace.overhead_pct", 100*(1-ratio(median(seriesOf(traced.pairs).relRate), ms["rel_plans_per_s"].Value)))

		probes, err := newProbeEnv(cfg, m, p, cfg.scratch)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		defer probes.close()
		rec, err := reconcileWorkload(cfg, wl, tgt, p, rp, probes)
		if err != nil {
			return nil, fmt.Errorf("reconciliation probe: %w", err)
		}
		phase(phaseResult{name: "reconcile", attempted: rec.attempted, failed: rec.failed})
		failures = append(failures, phaseResult{name: "reconcile", failed: rec.failed,
			firstErr: errors.New("reconciliation probe: a served total differs from the in-process value")})
		ms.set("trace.accounted_share", ratio(rec.accountedUS, rec.rootMedianUS))
		ms.set("trace.unaccounted_us", rec.rootMedianUS-rec.accountedUS)
		if err := probes.run(ms); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		kept, roots := replayedOnly(traced.spans)
		tf := &traceFile{
			Workload: wl.name, Seed: cfg.seed, RootSpans: roots, ReplayEvery: replayEvery,
			LayerSelfUS: rec.layerSelfUS, RootMedianUS: rec.rootMedianUS,
			UnaccountedUS: rec.rootMedianUS - rec.accountedUS, Spans: kept, Reconcile: rec.spans,
		}
		if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+wl.name+".json"), tf); err != nil {
			return nil, err
		}
	}

	for _, mt := range ms {
		res.Metrics = append(res.Metrics, mt)
	}
	sort.Slice(res.Metrics, func(i, j int) bool { return res.Metrics[i].Name < res.Metrics[j].Name })

	// The verdict. A run that measured a retrain, or a router that
	// spilled or shed, measured something other than the workload.
	for _, ph := range failures {
		if ph.failed > 0 {
			return res, fmt.Errorf("%s phase: %d wrong or failed, first: %w", ph.name, ph.failed, ph.firstErr)
		}
	}
	if measured.attempted == 0 {
		return res, errors.New("measured phase completed no request")
	}
	if v := served(); v != versionAtStart {
		return res, fmt.Errorf("model version moved from %d to %d during the run: a retrain fired", versionAtStart, v)
	}
	if d := after.router.Decisions; d.Spillover+d.Shed > 0 {
		return res, fmt.Errorf("router spilled %d and shed %d requests: the run measured overload", d.Spillover, d.Shed)
	}
	return res, nil
}

// reconcileWorkload runs the one-in-flight probe against the workload's
// own listener. fleet_mixed goes through the probes' cache-less router
// instead: its own router would answer repeats from its response cache,
// and the replay has no public way to do the same.
func reconcileWorkload(cfg config, wl *workloadSpec, tgt *target, p *pool, rp *replayer, probes *probeEnv) (reconciliation, error) {
	dialAt := tgt
	if tgt.router != nil {
		dialAt = &target{streamAddr: probes.rt.StreamAddr()}
	}
	cl, err := wl.dial(dialAt)
	if err != nil {
		return reconciliation{}, err
	}
	defer cl.close()
	// 2000 plans' worth of requests, and at least 100 of them: a batch
	// request and its replay take tens of milliseconds.
	n := max(2000/len(p.requests[0].plans), 100) / cfg.probeScale
	return reconcile(rp, cl, p, n, wl.all), nil
}

// layerCounters derives the per-layer metrics that are deltas of the
// program's own counters, or of the process's, across the measured
// phase. They cost nothing to read, so gated runs record them too.
func layerCounters(ms metrics, m *model, ph phaseResult, before, after counters) {
	plans := float64(ph.plans)

	dispatches := float64(after.stream.Dispatches - before.stream.Dispatches)
	ms.set("stream.batch_fill", ratio(float64(after.stream.Requests-before.stream.Requests), dispatches))
	ms.set("stream.holds_per_dispatch", ratio(float64(after.stream.Holds-before.stream.Holds), dispatches))
	hits := float64(after.cacheHits - before.cacheHits)
	ms.set("serve.cache_hit_ratio", ratio(hits, hits+float64(after.cacheMisses-before.cacheMisses)))

	rc := func(c counters) (hits, misses, affinity, spill, shed float64) {
		return float64(c.router.Cache.Hits), float64(c.router.Cache.Misses),
			float64(c.router.Decisions.Affinity), float64(c.router.Decisions.Spillover), float64(c.router.Decisions.Shed)
	}
	h0, m0, a0, sp0, sh0 := rc(before)
	h1, m1, a1, sp1, sh1 := rc(after)
	ms.set("cluster.cache_hit_ratio", ratio(h1-h0, (h1-h0)+(m1-m0)))
	ms.set("cluster.affinity_ratio", ratio(a1-a0, (a1-a0)+(sp1-sp0)))
	ms.set("cluster.spillover", sp1-sp0)
	ms.set("cluster.shed", sh1-sh0)
	var lo, hi float64
	for i, r := range after.router.Replicas {
		d := float64(r.Requests - before.router.Replicas[i].Requests)
		if i == 0 || d < lo {
			lo = d
		}
		hi = max(hi, d)
	}
	ms.set("cluster.replica_skew", ratio(hi, lo))

	ms.set("core.train_s", m.trainS)
	ms.set("core.train_samples_per_s", float64(m.trainOps*len(bothResources))/m.trainS)
	ms.set("store.publish_ms", m.publishMS)

	ms.set("proc.allocs_per_plan", ratio(float64(ph.use.mallocs), plans))
	ms.set("proc.alloc_bytes_per_plan", ratio(float64(ph.use.bytes), plans))
	ms.set("proc.gc_cycles", float64(ph.use.gcCycles))
	ms.set("proc.gc_pause_ms", float64(ph.use.pauseNS)/1e6)
	ms.set("proc.peak_rss_mb", peakRSSMB())
	ms.set("proc.cores_busy", ratio(ph.use.cpu.Seconds(), ph.use.wall.Seconds()))
	ms.set("proc.steal_pct", 100*ratio(ph.use.stolen.Seconds(), ph.use.wall.Seconds()*float64(runtime.NumCPU())))
}
