package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/obs"
)

// benchSpec is BENCHMARK.json: the one place a metric's name, unit,
// direction and regression bound are written down. The program reads
// units and bounds from it rather than repeating them.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the one that holds
// BENCHMARK.json: the checkout root when run as documented, one level
// up when run by go test.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// metric is one measured value in the result envelope. N is the number
// of samples Value is the median of (requests for a latency, sampling
// intervals for a rate, runs in a selfcheck result) and Q1/Q3 their
// quartiles; a figure measured once has N 1 and Q1 = Q3 = Value.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	// Bound and Spread appear in selfcheck results only: the bound
	// BENCHMARK.json fixes, and the disagreement between the two sets
	// of runs it was checked against.
	Bound  *float64 `json:"bound,omitempty"`
	Spread *float64 `json:"spread,omitempty"`
}

// metrics collects a run's values by name.
type metrics map[string]metric

func (ms metrics) set(name string, value float64) {
	ms[name] = metric{Name: name, Value: value, N: 1, Q1: value, Q3: value}
}

// setDist records the median of samples with its quartiles.
func (ms metrics) setDist(name string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	ms[name] = metric{Name: name, Value: med, N: len(samples), Q1: q1, Q3: q3}
}

// phaseCount is one phase's request accounting.
type phaseCount struct {
	Name      string `json:"name"`
	Attempted int64  `json:"attempted"`
	Succeeded int64  `json:"succeeded"`
	Failed    int64  `json:"failed"`
}

type workloadResult struct {
	Name        string       `json:"name"`
	RequestHash string       `json:"request_hash,omitempty"`
	TailPct     int          `json:"lat_tail_percentile,omitempty"`
	Phases      []phaseCount `json:"phases"`
	Metrics     []metric     `json:"metrics"`
}

func (w *workloadResult) metric(name string) (metric, bool) {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// envelope is the one schema every result file uses: a single gated or
// traced run, and the merged result of a selfcheck.
type envelope struct {
	Commit         string           `json:"commit"`
	GoVersion      string           `json:"go_version"`
	GOMAXPROCS     int              `json:"gomaxprocs"`
	GCPercent      int              `json:"gc_percent"`
	NProc          int              `json:"nproc"`
	CPUModel       string           `json:"cpu_model"`
	Kernel         string           `json:"kernel"`
	Seed           uint64           `json:"seed"`
	WarmSeconds    float64          `json:"warm_seconds"`
	MeasureSeconds float64          `json:"measure_seconds"`
	TracedSeconds  float64          `json:"traced_seconds,omitempty"`
	Quick          bool             `json:"quick,omitempty"`
	Workloads      []workloadResult `json:"workloads"`
}

func newEnvelope(cfg config) *envelope {
	build := obs.BuildInfo()
	commit := build.Revision
	if commit == "" {
		commit = "unknown"
	} else if build.Dirty {
		commit += "+dirty"
	}
	return &envelope{
		Commit: commit, GoVersion: build.GoVersion,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GCPercent: gcPercent, NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), Kernel: kernelRelease(),
		Seed: cfg.seed, WarmSeconds: cfg.warm.Seconds(),
		MeasureSeconds: cfg.measure.Seconds(), TracedSeconds: cfg.traced.Seconds(), Quick: cfg.quick,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(data))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readEnvelope(path string) (*envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &env, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		a = b
	}
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict classifies one metric on one workload between two results,
// by the rule in the choosing-metrics guide: a median worse by more
// than the bound is a regression; where either side's own quartile
// spread is wider than the bound and the two ranges overlap, the
// comparison cannot tell and says so.
func verdict(spec metricSpec, before, after metric) string {
	spread := func(m metric) float64 {
		if m.Value == 0 {
			return 0
		}
		return (m.Q3 - m.Q1) / m.Value
	}
	overlap := before.Q1 <= after.Q3 && after.Q1 <= before.Q3
	wide := before.N > 1 && after.N > 1 && max(spread(before), spread(after)) > spec.Bound
	w := worsening(spec, before.Value, after.Value)
	switch {
	case wide && overlap && (w > spec.Bound || w < -spec.Bound):
		return "unresolved"
	case w > spec.Bound:
		return "regressed"
	case w < -spec.Bound:
		return "improved"
	default:
		return "unchanged"
	}
}

// compare prints one row per end-to-end metric and workload present in
// both results and reports whether any regressed. Results taken with
// different parallelism, seed or phase lengths are not comparable.
func compare(w io.Writer, spec *benchSpec, before, after *envelope) (regressed bool, err error) {
	switch {
	case before.GOMAXPROCS != after.GOMAXPROCS:
		return false, fmt.Errorf("GOMAXPROCS differs: %d vs %d", before.GOMAXPROCS, after.GOMAXPROCS)
	case before.GCPercent != after.GCPercent:
		return false, fmt.Errorf("GOGC differs: %d vs %d", before.GCPercent, after.GCPercent)
	case before.Seed != after.Seed:
		return false, fmt.Errorf("seed differs: %d vs %d", before.Seed, after.Seed)
	case before.WarmSeconds != after.WarmSeconds || before.MeasureSeconds != after.MeasureSeconds:
		return false, fmt.Errorf("phase lengths differ: warm %gs/%gs, measure %gs/%gs",
			before.WarmSeconds, after.WarmSeconds, before.MeasureSeconds, after.MeasureSeconds)
	}
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "before", "after", "change", "bound", "verdict")
	for _, bw := range before.Workloads {
		var aw *workloadResult
		for i := range after.Workloads {
			if after.Workloads[i].Name == bw.Name {
				aw = &after.Workloads[i]
			}
		}
		if aw == nil {
			continue
		}
		for _, ms := range spec.EndToEnd {
			bm, ok1 := bw.metric(ms.Name)
			am, ok2 := aw.metric(ms.Name)
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(ms, bm, am)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-12s %-16s %14.4f %14.4f %+7.1f%% %5.1f%%  %s\n",
				bw.Name, ms.Name, bm.Value, am.Value, 100*ratio(am.Value-bm.Value, bm.Value), 100*ms.Bound, v)
		}
	}
	return regressed, nil
}

// selfcheckRuns is how many runs of each workload a selfcheck set holds.
// One run per set disagreed with itself by more than 25% about once in
// sixteen comparisons on the box this was built on (a neighbour's slow
// minute); the medians of three do not.
const selfcheckRuns = 3

// selfcheck runs two sets of every workload on this build, alternating
// them run by run, and fails if the two sets' medians of any end-to-end
// metric disagree by more than its bound. The merged result records each
// metric's observed disagreement next to the bound, so the bounds in
// BENCHMARK.json are measured rather than asserted.
func selfcheck(w io.Writer, spec *benchSpec, seed uint64, seconds float64, outDir, outFile string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var merged *envelope
	failed := false
	for _, wl := range workloads {
		var sets [2][]workloadResult
		for i := 0; i < 2*selfcheckRuns; i++ {
			set := i % 2
			path := filepath.Join(outDir, fmt.Sprintf("selfcheck-%s-%c%d.json", wl.name, 'a'+set, i/2))
			cmd := exec.Command(exe, "-workload", wl.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", "0", "-out", path)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s set %c: %w", wl.name, 'a'+set, err)
			}
			env, err := readEnvelope(path)
			if err != nil {
				return err
			}
			if len(env.Workloads) != 1 {
				return fmt.Errorf("%s: want one workload, found %d", path, len(env.Workloads))
			}
			sets[set] = append(sets[set], env.Workloads[0])
			if merged == nil {
				env.Workloads = nil
				merged = env
			}
		}
		out, disagrees := mergeSets(w, spec, sets[0], sets[1])
		failed = failed || disagrees
		merged.Workloads = append(merged.Workloads, out)
	}
	if err := writeJSON(outFile, merged); err != nil {
		return err
	}
	if failed {
		return errors.New("selfcheck: two sets of runs of the same build disagree by more than a bound")
	}
	return nil
}

// mergeSets folds two sets of runs of one workload into one result: each
// metric's value is the median over all the runs, with their quartiles.
// It prints one row per end-to-end metric and reports whether the two
// sets' medians of any of those disagree by more than its bound.
func mergeSets(w io.Writer, spec *benchSpec, a, b []workloadResult) (out workloadResult, disagrees bool) {
	values := func(set []workloadResult, name string) []float64 {
		var vals []float64
		for _, run := range set {
			if m, ok := run.metric(name); ok {
				vals = append(vals, m.Value)
			}
		}
		return vals
	}
	first := a[0]
	out = workloadResult{Name: first.Name, RequestHash: first.RequestHash, TailPct: first.TailPct, Phases: first.Phases}
	for _, fm := range first.Metrics {
		av, bv := values(a, fm.Name), values(b, fm.Name)
		q1, med, q3 := quartiles(append(append([]float64(nil), av...), bv...))
		m := metric{Name: fm.Name, Unit: fm.Unit, Value: med, N: len(av) + len(bv), Q1: q1, Q3: q3}
		for _, ms := range spec.EndToEnd {
			if ms.Name != fm.Name {
				continue
			}
			am, bm := median(av), median(bv)
			bound, spread := ms.Bound, relDiff(am, bm)
			m.Bound, m.Spread = &bound, &spread
			status := "ok"
			if spread > bound {
				status, disagrees = "DISAGREES", true
			}
			fmt.Fprintf(w, "%-12s %-16s %14.4f %14.4f  spread %5.2f%%  bound %5.2f%%  %s\n",
				first.Name, ms.Name, am, bm, 100*spread, 100*bound, status)
		}
		out.Metrics = append(out.Metrics, m)
	}
	return out, disagrees
}
