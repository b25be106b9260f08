package store

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

var (
	setupOnce sync.Once
	cpuEst    *core.Estimator // trained on the full slice
	ioEst     *core.Estimator
	cpuEstB   *core.Estimator // trained on half: different content
	testPlans []*plan.Plan
)

func setup(t testing.TB) {
	t.Helper()
	setupOnce.Do(func() {
		cfg := workload.Config{Seed: 19, N: 64, SFs: []float64{1, 2}, Z: 2, Corr: 0.85}
		qs := workload.GenTPCH(cfg)
		eng := engine.New(nil)
		var plans []*plan.Plan
		for _, q := range qs {
			eng.Run(q.Plan)
			plans = append(plans, q.Plan)
		}
		tcfg := core.DefaultConfig()
		tcfg.Mart.Iterations = 30
		var err error
		if cpuEst, err = core.Train(plans[:48], plan.CPUTime, nil, tcfg); err != nil {
			panic(err)
		}
		if ioEst, err = core.Train(plans[:48], plan.LogicalIO, nil, tcfg); err != nil {
			panic(err)
		}
		if cpuEstB, err = core.Train(plans[:24], plan.CPUTime, nil, tcfg); err != nil {
			panic(err)
		}
		testPlans = plans[48:]
	})
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPublishLoadRoundTrip publishes a two-resource snapshot and checks
// the reloaded estimators predict bit-identically, and that the
// manifest records what was published.
func TestPublishLoadRoundTrip(t *testing.T) {
	setup(t)
	st := openStore(t, t.TempDir(), Options{})
	man, err := st.Publish(Snapshot{
		Schema: "tpch",
		Source: "bootstrap",
		Models: map[plan.ResourceKind]*core.Estimator{plan.CPUTime: cpuEst, plan.LogicalIO: ioEst},
	})
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != 1 || man.Schema != "tpch" || man.Source != "bootstrap" {
		t.Fatalf("manifest header: %+v", man)
	}
	if len(man.Models) != 2 || man.Models[0].Resource != "cpu" || man.Models[1].Resource != "io" {
		t.Fatalf("manifest models: %+v", man.Models)
	}
	for _, e := range man.Models {
		if e.NumModels == 0 || len(e.SHA256) != 64 {
			t.Fatalf("manifest entry incomplete: %+v", e)
		}
	}

	loaded, err := st.LoadLatest("tpch")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Manifest.Version != man.Version {
		t.Fatalf("loaded v%d, want v%d", loaded.Manifest.Version, man.Version)
	}
	for _, p := range testPlans {
		if got, want := loaded.Models[plan.CPUTime].PredictPlan(p), cpuEst.PredictPlan(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cpu prediction drifted through the store: %v != %v", got, want)
		}
		if got, want := loaded.Models[plan.LogicalIO].PredictPlan(p), ioEst.PredictPlan(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("io prediction drifted through the store: %v != %v", got, want)
		}
	}

	// A second store handle over the same directory (a "restart")
	// resumes version numbering after the existing snapshots.
	st2 := openStore(t, st.Dir(), Options{})
	man2, err := st2.Publish(Snapshot{Schema: "tpch", Models: map[plan.ResourceKind]*core.Estimator{plan.CPUTime: cpuEstB}})
	if err != nil {
		t.Fatal(err)
	}
	if man2.Version != 2 {
		t.Fatalf("restarted store assigned v%d, want v2", man2.Version)
	}
}

// TestPublishReportsLowestResourceFirst: the resources encode side by
// side, but with both unpublishable the error is always the lower
// resource kind's, and nothing is written.
func TestPublishReportsLowestResourceFirst(t *testing.T) {
	setup(t)
	st := openStore(t, t.TempDir(), Options{})
	for i := 0; i < 20; i++ {
		_, err := st.Publish(Snapshot{Schema: "tpch", Models: map[plan.ResourceKind]*core.Estimator{
			plan.CPUTime: nil, plan.LogicalIO: cpuEst,
		}})
		if err == nil || !strings.Contains(err.Error(), "nil CPU model") {
			t.Fatalf("publish %d: error %v, want the nil CPU model's", i, err)
		}
	}
	if _, err := st.LoadLatest("tpch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a refused publish left a snapshot behind: %v", err)
	}
}

// TestManifestGolden pins the manifest wire format: a fixed manifest
// must encode byte-identically to the checked-in golden file, and the
// golden must decode and re-encode to itself (round-trip fixed point).
func TestManifestGolden(t *testing.T) {
	man := &Manifest{
		FormatVersion: ManifestFormatVersion,
		Version:       7,
		Schema:        "tpch",
		Source:        "retrain",
		CreatedAt:     time.Date(2026, 7, 26, 12, 0, 0, 0, time.UTC),
		Models: []ModelEntry{
			{
				Resource:  "cpu",
				File:      "cpu.model.json",
				SHA256:    strings.Repeat("ab", 32),
				Mode:      "exact",
				NumModels: 42,
				Baseline:  &core.ErrorBaseline{N: 128, Mean: 0.21, P50: 0.17, P90: 0.4},
			},
			{
				Resource:  "io",
				File:      "io.model.json",
				SHA256:    strings.Repeat("cd", 32),
				Mode:      "exact",
				NumModels: 37,
			},
		},
	}
	got, err := man.Encode()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "manifest.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("manifest encoding changed:\n got: %s\nwant: %s", got, want)
	}
	dec, err := DecodeManifest(want)
	if err != nil {
		t.Fatal(err)
	}
	again, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("decode→encode is not a fixed point of the golden manifest")
	}
}

// TestTornWriteRecovery simulates the two crash shapes: a publish that
// died before its rename (leftover temp dir) and a snapshot whose model
// file was truncated after the fact. Reload must clean the former and
// fall back past the latter to the last good version.
func TestTornWriteRecovery(t *testing.T) {
	setup(t)
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	if _, err := st.Publish(Snapshot{Schema: "tpch", Models: map[plan.ResourceKind]*core.Estimator{plan.CPUTime: cpuEst}}); err != nil {
		t.Fatal(err)
	}
	man2, err := st.Publish(Snapshot{Schema: "tpch", Models: map[plan.ResourceKind]*core.Estimator{plan.CPUTime: cpuEstB}})
	if err != nil {
		t.Fatal(err)
	}

	// Crash shape 1: a partial publish that never renamed.
	if err := os.MkdirAll(filepath.Join(dir, tmpPrefix+"crashed"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"crashed", "cpu.model.json"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash shape 2: v2 torn mid-write — both the model file and its
	// slab truncated (either alone no longer corrupts the snapshot, by
	// design: each is the other's fallback).
	for _, name := range []string{"cpu.model.json", "cpu.model.slab"} {
		path := filepath.Join(dir, "v0000000002", name)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": reopen the store over the damaged directory.
	st2 := openStore(t, dir, Options{})
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"crashed")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("partial publish not cleaned at Open")
	}
	if _, err := st2.LoadVersion(man2.Version); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn v2 load yielded %v, want ErrCorrupt", err)
	}
	loaded, err := st2.LoadLatest("tpch")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Manifest.Version != 1 {
		t.Fatalf("LoadLatest picked v%d, want the last good v1", loaded.Manifest.Version)
	}
	for _, p := range testPlans[:4] {
		if got, want := loaded.Models[plan.CPUTime].PredictPlan(p), cpuEst.PredictPlan(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatal("recovered model is not v1's")
		}
	}
	// The next publish must not collide with the torn v2's directory.
	man3, err := st2.Publish(Snapshot{Schema: "tpch", Models: map[plan.ResourceKind]*core.Estimator{plan.CPUTime: cpuEst}})
	if err != nil {
		t.Fatal(err)
	}
	if man3.Version != 3 {
		t.Fatalf("post-recovery publish got v%d, want v3", man3.Version)
	}
}

// TestGCRespectsPinnedCurrent: with retention 1, the newest snapshot
// survives per schema — and so does an older one the serving record
// names (the snapshot a rollback is currently serving from), even with
// current.json on disk turned to garbage, while unnamed middles go.
func TestGCRespectsPinnedCurrent(t *testing.T) {
	setup(t)
	st := openStore(t, t.TempDir(), Options{Retain: 1})
	models := map[plan.ResourceKind]*core.Estimator{plan.CPUTime: cpuEst}
	serve := func(v uint64) {
		t.Helper()
		if err := st.SetCurrent("tpch", map[string]uint64{"cpu": v}); err != nil {
			t.Fatal(err)
		}
	}
	gc := func() {
		t.Helper()
		if _, err := st.GC(); err != nil {
			t.Fatal(err)
		}
	}
	var vs []uint64
	for i := 0; i < 3; i++ {
		// Record v1 as serving before the later publishes' auto-GC can
		// remove it — exactly the order the registry uses (record on
		// serve, GC later).
		man, err := st.Publish(Snapshot{Schema: "tpch", Models: models})
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, man.Version)
		if i == 0 {
			serve(man.Version)
		}
	}
	gc()
	if _, err := st.LoadVersion(vs[2]); err != nil {
		t.Fatalf("newest snapshot v%d removed: %v", vs[2], err)
	}
	if _, err := st.LoadVersion(vs[0]); err != nil {
		t.Fatalf("serving snapshot v%d removed: %v", vs[0], err)
	}
	if _, err := st.LoadVersion(vs[1]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("middle snapshot v%d should be pruned, got %v", vs[1], err)
	}
	// A corrupt current.json must not expose the serving snapshot: the
	// record SetCurrent keeps in memory still names it.
	if err := os.WriteFile(filepath.Join(st.Dir(), currentName), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	gc()
	if _, err := st.LoadVersion(vs[0]); err != nil {
		t.Fatalf("serving snapshot v%d removed once current.json was corrupt: %v", vs[0], err)
	}
	// Moving the record off v1 releases it to the next GC.
	serve(vs[2])
	gc()
	if _, err := st.LoadVersion(vs[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("released snapshot v%d should be pruned, got %v", vs[0], err)
	}
}

// TestChecksumTamperDetected flips one byte of a model file; the load
// must fail with ErrCorrupt rather than serve a silently wrong model.
// The slab is removed to pin the JSON verification path in isolation —
// with a slab present the tampered JSON would (by design) be routed
// around; slab_store_test.go covers that matrix.
func TestChecksumTamperDetected(t *testing.T) {
	setup(t)
	st := openStore(t, t.TempDir(), Options{})
	man, err := st.Publish(Snapshot{Schema: "tpch", Models: map[plan.ResourceKind]*core.Estimator{plan.CPUTime: cpuEst}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(st.Dir(), "v0000000001", "cpu.model.slab")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), "v0000000001", "cpu.model.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadVersion(man.Version); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered load yielded %v, want ErrCorrupt", err)
	}
}
