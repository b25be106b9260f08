package main

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	// The reported tail is the highest of p50/p90/p99 with at least ten
	// samples beyond it.
	for _, tc := range []struct{ n, want int }{
		{0, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {250000, 99},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if beyond := tc.n * (100 - got) / 100; got > 50 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %d leaves only %d samples beyond it", tc.n, got, beyond)
		}
	}
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(1000-i) * 1000 // 1..1000 µs, unsorted
	}
	s := summarizeLatencies(ns)
	if s.n != 1000 || s.pct != 99 || s.p50 != 500 || s.tail != 990 {
		t.Errorf("summarizeLatencies = %+v, want n 1000, p50 500, p99 990", s)
	}
}

func TestSeriesOf(t *testing.T) {
	slice := func(units int64, wallMS, cpuMS int, latP50 float64) sliceStat {
		return sliceStat{wall: time.Duration(wallMS) * time.Millisecond, cpu: time.Duration(cpuMS) * time.Millisecond, units: units, latP50: latP50}
	}
	pairs := []pair{
		// 2000 plans/s at 900 µs CPU and 4000 µs each, beside a reference
		// at 400 req/s, 4500 µs CPU and 80 µs.
		{work: slice(1000, 500, 900, 4000), ref: slice(100, 250, 450, 80)},
		// The host slows both by a quarter: the ratios stay.
		{work: slice(800, 500, 900, 5000), ref: slice(80, 250, 450, 100)},
		// A slice that completed nothing has no ratio.
		{work: slice(0, 500, 0, 0), ref: slice(100, 250, 450, 80)},
		{work: slice(1000, 500, 900, 4000), ref: slice(0, 250, 0, 0)},
	}
	s := seriesOf(pairs)
	if fmt.Sprint(s.rate) != "[2000 1600]" || fmt.Sprint(s.refRate) != "[400 320]" {
		t.Errorf("rates %v beside %v, want [2000 1600] beside [400 320]", s.rate, s.refRate)
	}
	for i := range s.relRate {
		if s.relRate[i] != 5 || s.relLat[i] != 50 || math.Abs(s.relCPU[i]-0.2) > 1e-12 {
			t.Errorf("pair %d: ratios %v, %v, %v, want 5, 50, 0.2", i, s.relRate[i], s.relLat[i], s.relCPU[i])
		}
	}
	if len(s.relRate) != 2 {
		t.Errorf("%d pairs kept, want 2", len(s.relRate))
	}
}

// TestReferenceAnswer pins that the reference service's answer depends
// on its input alone, whatever order maps iterate in.
func TestReferenceAnswer(t *testing.T) {
	body := []byte(`{"schema":"tpch","plan":{"op":"scan","rows":1e6,"children":[{"op":"seek","rows":12.5}]},"n":null}`)
	want, err := referenceAnswer(body)
	if err != nil {
		t.Fatal(err)
	}
	// keys 6+4+1, "tpch" 4, null 1; plan: keys 2+4+8, "scan" 4, rows 1;
	// its child: keys 2+4, "seek" 4, rows 1.
	if string(want) != "46" {
		t.Errorf("referenceAnswer = %s, want 46", want)
	}
	for i := 0; i < 20; i++ {
		if got, _ := referenceAnswer(body); string(got) != string(want) {
			t.Fatalf("call %d answered %s, then %s", i, want, got)
		}
	}
	if _, err := referenceAnswer([]byte(`{"plan":`)); err == nil {
		t.Error("a truncated body was answered")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 7, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 7, Name: "decode", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 7, Name: "serve", Start: 40, End: 90},
		{ID: 4, Parent: 3, Req: 7, Name: "features", Start: 45, End: 60},
		// A replayed child may outlast the call it explains; self time
		// floors at zero instead of going negative.
		{ID: 5, Parent: 2, Req: 7, Name: "replayed", Start: 100, End: 150},
	}
	want := map[uint64]time.Duration{1: 20, 2: 0, 3: 35, 4: 15, 5: 50}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestAssignSchemasBalances(t *testing.T) {
	seen := make(map[string]bool)
	for port := 30000; port < 30040; port++ {
		addrs := []string{fmt.Sprintf("127.0.0.1:%d", port), fmt.Sprintf("127.0.0.1:%d", 2*port+1)}
		for i, schemas := range assignSchemas(addrs, 4) {
			if len(schemas) != 4 {
				t.Fatalf("ports %v: replica %d owns %d schemas, want 4", addrs, i, len(schemas))
			}
			seen[strings.Join(schemas, ",")] = true
		}
	}
	if len(seen) < 2 {
		t.Error("every port pair got the same names: the ring is not being consulted")
	}
}

func TestVerdictAndCompare(t *testing.T) {
	lower := metricSpec{Name: "lat_p50_us", Better: "lower", Bound: 0.07}
	higher := metricSpec{Name: "plans_per_s", Better: "higher", Bound: 0.05}
	tight := func(v float64) metric { return metric{Value: v, N: 50, Q1: v * 0.99, Q3: v * 1.01} }
	wide := func(v float64) metric { return metric{Value: v, N: 50, Q1: v * 0.8, Q3: v * 1.2} }
	for _, tc := range []struct {
		spec          metricSpec
		before, after metric
		want          string
	}{
		{lower, tight(100), tight(103), "unchanged"},
		{lower, tight(100), tight(110), "regressed"},
		{lower, tight(100), tight(90), "improved"},
		{higher, tight(100), tight(90), "regressed"},
		{higher, tight(100), tight(110), "improved"},
		{lower, wide(100), wide(110), "unresolved"},
		{lower, wide(100), wide(200), "regressed"}, // ranges no longer overlap
	} {
		if got := verdict(tc.spec, tc.before, tc.after); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.spec.Name, tc.before.Value, tc.after.Value, got, tc.want)
		}
	}

	spec := &benchSpec{EndToEnd: []metricSpec{higher}}
	env := func(v float64) *envelope {
		m := tight(v)
		m.Name = higher.Name
		return &envelope{GOMAXPROCS: 2, Seed: 1, WarmSeconds: 2, MeasureSeconds: 15,
			Workloads: []workloadResult{{Name: "stream_hot", Metrics: []metric{m}}}}
	}
	var out bytes.Buffer
	if regressed, err := compare(&out, spec, env(100), env(80)); err != nil || !regressed {
		t.Errorf("compare 100 -> 80 plans/s: regressed %v, err %v; want a regression\n%s", regressed, err, out.String())
	}
	if regressed, err := compare(&out, spec, env(100), env(101)); err != nil || regressed {
		t.Errorf("compare 100 -> 101 plans/s: regressed %v, err %v; want none", regressed, err)
	}
	for name, mutate := range map[string]func(*envelope){
		"GOMAXPROCS": func(e *envelope) { e.GOMAXPROCS = 4 },
		"seed":       func(e *envelope) { e.Seed = 2 },
		"durations":  func(e *envelope) { e.MeasureSeconds = 30 },
	} {
		other := env(100)
		mutate(other)
		if _, err := compare(&out, spec, env(100), other); err == nil {
			t.Errorf("compare accepted results whose %s differ", name)
		}
	}
}

func TestMergeSets(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "plans_per_s", Better: "higher", Bound: 0.1}}}
	set := func(rates ...float64) []workloadResult {
		var runs []workloadResult
		for _, r := range rates {
			runs = append(runs, workloadResult{Name: "stream_hot", Metrics: []metric{
				{Name: "plans_per_s", Value: r, N: 59}, {Name: "proc.cores_busy", Value: 1.9, N: 1},
			}})
		}
		return runs
	}
	var out bytes.Buffer
	// One slow run in a set does not move its median.
	merged, disagrees := mergeSets(&out, spec, set(100, 60, 101), set(104, 103, 105))
	if disagrees {
		t.Errorf("medians 100 and 104 plans/s disagree under a 10%% bound:\n%s", out.String())
	}
	m, _ := merged.metric("plans_per_s")
	if m.Value != 102 || m.N != 6 || m.Bound == nil || *m.Bound != 0.1 || m.Spread == nil || *m.Spread != relDiff(100, 104) {
		t.Errorf("merged plans_per_s = %+v, want median 102 of 6 with bound 0.1 and the spread between the sets' medians", m)
	}
	if layer, _ := merged.metric("proc.cores_busy"); layer.Bound != nil || layer.Spread != nil {
		t.Errorf("a per-layer metric got a bound: %+v", layer)
	}
	if _, disagrees := mergeSets(&out, spec, set(100, 99, 101), set(125, 124, 126)); !disagrees {
		t.Error("medians 100 and 125 plans/s agree under a 10% bound")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONNames(t *testing.T) {
	spec := loadTestSpec(t)
	used := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		name("workload", w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %q is in BENCHMARK.json but not in the program", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	var setup bool
	for _, m := range spec.EndToEnd {
		name("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		name("per-layer metric", m.Name)
	}
}

// TestQuickSmoke runs every workload's traced variant at smoke sizes —
// which also runs the gated loop it takes its overhead against — and
// checks the run is judged correct and emits every metric
// BENCHMARK.json names.
func TestQuickSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel() // most of a smoke run is waiting on phase timers and one-in-flight round trips
			cfg := newConfig(1, 1, true, true)
			cfg.outDir, cfg.scratch = t.TempDir(), t.TempDir()
			res, err := runWorkload(cfg, wl)
			if err != nil {
				t.Error(err)
			}
			if res == nil {
				return
			}
			for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
				if _, ok := res.metric(m.Name); !ok {
					t.Errorf("metric %s is in BENCHMARK.json but was not emitted", m.Name)
				}
			}
			for _, m := range res.Metrics {
				if spec.unit(m.Name) == "" {
					t.Errorf("emitted metric %s is not in BENCHMARK.json", m.Name)
				}
			}
		})
	}
}

// TestRequestStreamHash pins that the request stream is a function of
// the seed alone: the same seed gives the same bytes in the same order
// (also across fleet_mixed's ephemeral ports), another seed gives others.
func TestRequestStreamHash(t *testing.T) {
	hash := func(wl *workloadSpec, seed uint64) string {
		cfg := newConfig(seed, 1, false, true)
		cfg.setupReps, cfg.scratch = 1, t.TempDir()
		m, tgt, _, err := timedSetup(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		defer tgt.close()
		p, err := wl.buildPool(cfg, m, tgt)
		if err != nil {
			t.Fatal(err)
		}
		return p.hash
	}
	for _, name := range []string{"http_loop", "fleet_mixed"} {
		wl := findWorkload(name)
		a, again, b := hash(wl, 1), hash(wl, 1), hash(wl, 2)
		if a != again {
			t.Errorf("%s: seed 1 gave request streams %s and %s", name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream %s", name, a)
		}
	}
}
