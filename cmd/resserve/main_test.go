package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8080" || cfg.serve.CacheEntries != 65536 || cfg.serve.DefaultTimeout != 2*time.Second ||
		cfg.store.Retain != 16 || cfg.feedback.DriftThreshold != 2 || cfg.feedback.MinObservations != 256 ||
		cfg.serve.SlowTrace != 500*time.Millisecond || cfg.bootN != 128 || cfg.bootIters != 100 {
		t.Errorf("defaults parsed as %+v", cfg)
	}
	// No -model means -bootstrap tpch; a -model leaves bootstrap off.
	if cfg.bootstrap != "tpch" {
		t.Errorf("no -model: bootstrap = %q, want tpch", cfg.bootstrap)
	}
	cfg, err = parseFlags([]string{"-model", "tpch=m.json", "-model", "io.json", "-cache", "-1", "-train-workers", "3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.bootstrap != "" || !slices.Equal(cfg.models, modelFlags{"tpch=m.json", "io.json"}) ||
		cfg.serve.CacheEntries != -1 || cfg.feedback.TrainWorkers != 3 {
		t.Errorf("parsed %+v", cfg)
	}
	// -forward-observations needs the segment directory it tails.
	if _, err := parseFlags([]string{"-forward-observations", "http://r:1"}, io.Discard); err == nil {
		t.Error("-forward-observations without -feedback-dir accepted")
	}
	if _, err := parseFlags([]string{"-forward-observations", "http://r:1", "-feedback-dir", "obs"}, io.Discard); err != nil {
		t.Errorf("-forward-observations with -feedback-dir: %v", err)
	}
	for _, args := range [][]string{{"-no-such-flag"}, {"-cache", "many"}, {"-timeout", "soon"}} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) succeeded", args)
		}
	}
}

// startRun parses args and serves them with run in the background
// until the returned stop is called, which signals run and checks it
// returns nil. It fails the test if run returns before serving.
func startRun(t *testing.T, args ...string) (httpAddr, streamAddr string, stop func()) {
	t.Helper()
	cfg, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	type addrs struct{ http, stream string }
	ready := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() { done <- run(cfg, sig, func(h, s string) { ready <- addrs{h, s} }) }()
	var at addrs
	select {
	case at = <-ready:
	case err := <-done:
		t.Fatalf("run returned before serving: %v", err)
	}
	return at.http, at.stream, func() {
		t.Helper()
		sig <- syscall.SIGTERM
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("run still serving 15 s after the signal")
		}
	}
}

// estimateBody is a POST /estimate body for one executed tpch plan.
func estimateBody(t *testing.T, resource string, p *plan.Plan) []byte {
	t.Helper()
	wire, err := plan.EncodeJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.EstimateRequest{Schema: "tpch", Resource: resource, Plan: wire})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postEstimate POSTs body to /estimate and decodes the 200 answer.
func postEstimate(t *testing.T, httpAddr string, body []byte) serve.Response {
	t.Helper()
	resp, err := http.Post("http://"+httpAddr+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /estimate: status %d, error %v: %s", resp.StatusCode, err, raw)
	}
	var out serve.Response
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// servedModels is GET /models.
func servedModels(t *testing.T, httpAddr string) []serve.ModelInfo {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []serve.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	return infos
}

// snapshotDirs lists the store's snapshot directories.
func snapshotDirs(t *testing.T, dir string) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(dir, "v*"))
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// testPlan is one executed tpch plan outside the bootstrap workload.
func testPlan(t *testing.T) *plan.Plan {
	t.Helper()
	qs, err := repro.GenerateWorkload(repro.WorkloadOptions{Schema: "tpch", N: 1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	repro.Execute(qs)
	return qs[0].Plan
}

// TestRunBootstrapsThenRestores drives the command's startup path
// twice over one store: the first run bootstraps both resources and
// answers on both transports; the second restores both from the store
// and trains nothing.
func TestRunBootstrapsThenRestores(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-bootstrap", "tpch", "-bootstrap-n", "32", "-bootstrap-iters", "10", "-store-dir", dir,
		"-addr", "127.0.0.1:0", "-stream-addr", "127.0.0.1:0"}
	body := estimateBody(t, "cpu", testPlan(t))

	httpAddr, streamAddr, stop := startRun(t, args...)
	first := postEstimate(t, httpAddr, body)
	cl, err := stream.Dial(streamAddr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.EstimateBytes(context.Background(), body)
	cl.Close()
	if err != nil {
		t.Fatalf("stream estimate: %v", err)
	}
	booted := servedModels(t, httpAddr)
	stop()
	if len(booted) != 2 {
		t.Fatalf("first run serves %d models, want cpu and io", len(booted))
	}
	snaps := snapshotDirs(t, dir)
	if len(snaps) != 1 {
		t.Fatalf("bootstrap left snapshots %v, want one holding cpu and io", snaps)
	}

	httpAddr, _, stop = startRun(t, args...)
	restored := servedModels(t, httpAddr)
	again := postEstimate(t, httpAddr, body)
	stop()
	if len(restored) != 2 {
		t.Fatalf("second run serves %d models, want cpu and io", len(restored))
	}
	bootedAt := make(map[string]uint64)
	for _, info := range booted {
		bootedAt[info.Resource] = info.Snapshot
	}
	for _, info := range restored {
		if info.Snapshot == 0 || info.Snapshot != bootedAt[info.Resource] {
			t.Errorf("%s serves snapshot v%d after restart, v%d before", info.Resource, info.Snapshot, bootedAt[info.Resource])
		}
	}
	if again.Total != first.Total {
		t.Errorf("restored model estimates %v, bootstrapped one %v", again.Total, first.Total)
	}
	if after := snapshotDirs(t, dir); !slices.Equal(after, snaps) {
		t.Errorf("restart wrote snapshots: %v, before %v", after, snaps)
	}
}

// TestPartialRestoreHealsUnderSlabPath starts the command over a store
// holding a CPU-only snapshot — the shape a crash between a schema's
// CPU and IO publishes leaves behind — with a slab sibling, so the
// restore runs zero-copy. CPU must come back bit-identical to the
// published model and untrained, and only IO must be bootstrapped.
// Skipping bootstrap for the whole schema would wedge IO on the zero
// model; bootstrapping both would revert the restored CPU model.
func TestPartialRestoreHealsUnderSlabPath(t *testing.T) {
	dir := t.TempDir()
	qs, err := repro.GenerateWorkload(repro.WorkloadOptions{Schema: "tpch", N: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	repro.Execute(qs)
	cpuEst, err := repro.Train(qs, repro.TrainOptions{Resource: repro.CPUTime, BoostingIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	st, err := repro.OpenModelStore(dir, repro.ModelStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	man, err := repro.SaveSnapshot(st, "tpch", "bootstrap", cpuEst)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot must actually carry a slab, or this test would pass
	// without exercising the slab restore path at all.
	if len(man.Models) != 1 || man.Models[0].SlabFile == "" {
		t.Fatalf("snapshot has no slab to restore through: %+v", man.Models)
	}

	httpAddr, _, stop := startRun(t, "-bootstrap", "tpch", "-bootstrap-n", "32", "-bootstrap-iters", "10",
		"-store-dir", dir, "-addr", "127.0.0.1:0")
	for _, q := range qs[:4] {
		got := postEstimate(t, httpAddr, estimateBody(t, "cpu", q.Plan))
		if want := cpuEst.EstimatePlan(q.Plan); got.Total != want {
			t.Fatalf("restored prediction %v != published %v", got.Total, want)
		}
	}
	postEstimate(t, httpAddr, estimateBody(t, "io", qs[0].Plan))
	stop()

	// One publish, IO's, landed: a coherent snapshot of the untouched
	// CPU model and the bootstrapped IO one.
	if snaps := snapshotDirs(t, dir); len(snaps) != 2 {
		t.Fatalf("store holds %v, want the CPU-only snapshot and one bootstrap publish", snaps)
	}
	after, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	latest, err := after.LoadLatest("tpch")
	if err != nil {
		t.Fatal(err)
	}
	if len(latest.Manifest.Models) != 2 || latest.Manifest.Models[0].SHA256 != man.Models[0].SHA256 {
		t.Fatalf("newest snapshot %+v does not pair the restored CPU model with a bootstrapped IO one", latest.Manifest.Models)
	}
}

// TestBootstrapProbeDeterministic: bootstrap models are Save-identical
// at any training worker count, and their drift baselines come from the
// out-of-sample probe, not from the in-sample error over the training
// plans.
func TestBootstrapProbeDeterministic(t *testing.T) {
	const n, iters = 32, 10
	qs, err := repro.GenerateWorkload(repro.WorkloadOptions{Schema: "tpch", N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	repro.Execute(qs)
	plans := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		plans[i] = q.Plan
	}
	var saved [2][]byte
	for w, workers := range []int{1, 7} {
		reg := serve.NewRegistry()
		if err := bootstrapSchema(reg, "tpch", n, iters, workers, plan.ResourceKinds()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range plan.ResourceKinds() {
			est, _, ok := reg.CurrentEstimator("tpch", r)
			if !ok {
				t.Fatalf("bootstrap published no %s model", r)
			}
			if est.Baseline == nil || *est.Baseline == est.EvalPlans(plans) {
				t.Fatalf("%s baseline %+v is the in-sample one: the probe did not run", r, est.Baseline)
			}
			if err := est.Save(&buf); err != nil {
				t.Fatal(err)
			}
		}
		saved[w] = buf.Bytes()
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Fatal("bootstrap models differ between 1 and 7 training workers")
	}
}

// TestBootstrapMatchesReproTrain: bootstrap serves the paper's
// estimator. Its CPU and IO models predict bit-identically to
// repro.TrainSet at the same N, seed and iterations, which runs the
// §6.2 scale selection. Baselines differ by design (bootstrap's come
// from a held-out probe), so only predictions are compared.
func TestBootstrapMatchesReproTrain(t *testing.T) {
	const n, iters = 32, 10
	reg := serve.NewRegistry()
	resources := plan.ResourceKinds()
	if err := bootstrapSchema(reg, "tpch", n, iters, 0, resources); err != nil {
		t.Fatal(err)
	}
	train, err := repro.GenerateWorkload(repro.WorkloadOptions{Schema: "tpch", N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	repro.Execute(train)
	want, err := repro.TrainSet(train, repro.TrainOptions{BoostingIterations: iters}, resources...)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := repro.GenerateWorkload(repro.WorkloadOptions{Schema: "tpch", N: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resources {
		got, _, ok := reg.CurrentEstimator("tpch", r)
		if !ok {
			t.Fatalf("bootstrap published no %s model", r)
		}
		for _, q := range append(train, probe...) {
			if g, w := got.PredictPlan(q.Plan), want[i].EstimateQuery(q); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: bootstrap predicts %v, repro.TrainSet %v", r, g, w)
			}
		}
	}
}
