package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
)

// publishOne publishes a single-resource snapshot and returns its
// manifest.
func publishOne(t *testing.T, st *Store, schema string, r plan.ResourceKind, est *core.Estimator) *Manifest {
	t.Helper()
	man, err := st.Publish(Snapshot{Schema: schema, Models: map[plan.ResourceKind]*core.Estimator{r: est}})
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// corruptFile flips one byte a quarter into path — for a slab, safely
// inside the MARTS section an exact-mode restore actually checksums
// (sections the restore never reads are deliberately not verified).
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/4] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSlabRestorePreferred: a default-options publish writes slab files,
// records them in the manifest, and restores through them — zero-copy,
// bit-identical to the heap estimator.
func TestSlabRestorePreferred(t *testing.T) {
	setup(t)
	st := openStore(t, t.TempDir(), Options{})
	man := publishOne(t, st, "tpch", plan.CPUTime, cpuEst)

	e := man.Models[0]
	if e.SlabFile != "cpu.model.slab" || len(e.SlabSHA256) != 64 {
		t.Fatalf("manifest missing slab metadata: %+v", e)
	}
	if _, err := os.Stat(filepath.Join(st.versionDir(man.Version), e.SlabFile)); err != nil {
		t.Fatalf("slab file not written: %v", err)
	}

	loaded, err := st.LoadVersion(man.Version)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Layout[plan.CPUTime]; got != "mmap" {
		t.Fatalf("layout %q, want mmap (exact mode is the default)", got)
	}
	for _, p := range testPlans {
		if got, want := loaded.Models[plan.CPUTime].PredictPlan(p), cpuEst.PredictPlan(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("slab restore drifted: %v != %v", got, want)
		}
	}
}

// TestSlabCorruptionFallsBackToJSON is the first fallback hop: a
// tampered slab with an intact manifest and model blob restores the
// same snapshot through the JSON path — logged, never failed.
func TestSlabCorruptionFallsBackToJSON(t *testing.T) {
	setup(t)
	var logs []string
	st := openStore(t, t.TempDir(), Options{Logf: func(f string, a ...any) {
		logs = append(logs, fmt.Sprintf(f, a...))
	}})
	man := publishOne(t, st, "tpch", plan.CPUTime, cpuEst)
	corruptFile(t, filepath.Join(st.versionDir(man.Version), "cpu.model.slab"))

	loaded, err := st.LoadVersion(man.Version)
	if err != nil {
		t.Fatalf("corrupt slab must not fail the load: %v", err)
	}
	if got := loaded.Layout[plan.CPUTime]; got != "json" {
		t.Fatalf("layout %q, want json after slab corruption", got)
	}
	for _, p := range testPlans {
		if got, want := loaded.Models[plan.CPUTime].PredictPlan(p), cpuEst.PredictPlan(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("json fallback drifted: %v != %v", got, want)
		}
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "slab unusable") {
			found = true
		}
	}
	if !found {
		t.Fatalf("slab demotion was not logged: %q", logs)
	}
}

// TestSlabFormat1FallsBackToJSON is a rollout across slab format bumps:
// a snapshot whose slab file holds an earlier format's bytes (core's
// cpu.v1.slab and cpu.v2.slab; the manifest's slab checksum is an audit
// record no load compares, so the entry stands as published) restores
// through its JSON blob and answers bit-identically — declined for its
// format, by name.
func TestSlabFormat1FallsBackToJSON(t *testing.T) {
	setup(t)
	for _, format := range []int{1, 2} {
		name := fmt.Sprintf("cpu.v%d.slab", format)
		t.Run(name, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden", name))
			if err != nil {
				t.Fatal(err)
			}
			var logs []string
			st := openStore(t, t.TempDir(), Options{Logf: func(f string, a ...any) {
				logs = append(logs, fmt.Sprintf(f, a...))
			}})
			man := publishOne(t, st, "tpch", plan.CPUTime, cpuEst)
			if err := os.WriteFile(filepath.Join(st.versionDir(man.Version), man.Models[0].SlabFile), old, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := st.LoadVersion(man.Version)
			if err != nil {
				t.Fatalf("a format-%d slab must not fail the load: %v", format, err)
			}
			if got := loaded.Layout[plan.CPUTime]; got != "json" {
				t.Fatalf("layout %q, want json under a format-%d slab", got, format)
			}
			for _, p := range testPlans {
				if got, want := loaded.Models[plan.CPUTime].PredictPlan(p), cpuEst.PredictPlan(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("json fallback drifted: %v != %v", got, want)
				}
			}
			if want := fmt.Sprintf("format version %d", format); len(logs) != 1 || !strings.Contains(logs[0], want) {
				t.Fatalf("want one demotion log naming the format, got %q", logs)
			}
		})
	}
}

// TestSlabAndJSONCorruptionFallsBackToPreviousVersion is the second
// fallback hop: with both the slab and the model blob of the newest
// snapshot bad, LoadLatest lands on the previous intact version.
func TestSlabAndJSONCorruptionFallsBackToPreviousVersion(t *testing.T) {
	setup(t)
	st := openStore(t, t.TempDir(), Options{})
	man1 := publishOne(t, st, "tpch", plan.CPUTime, cpuEst)
	man2 := publishOne(t, st, "tpch", plan.CPUTime, cpuEstB)
	corruptFile(t, filepath.Join(st.versionDir(man2.Version), "cpu.model.slab"))
	corruptFile(t, filepath.Join(st.versionDir(man2.Version), "cpu.model.json"))

	if _, err := st.LoadVersion(man2.Version); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("doubly corrupt snapshot loaded: %v", err)
	}
	loaded, err := st.LoadLatest("tpch")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Manifest.Version != man1.Version {
		t.Fatalf("fell back to v%d, want the intact v%d", loaded.Manifest.Version, man1.Version)
	}
	for _, p := range testPlans[:4] {
		if got, want := loaded.Models[plan.CPUTime].PredictPlan(p), cpuEst.PredictPlan(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatal("recovered model is not v1's")
		}
	}
}

// TestSlabQuantizedMode is the rollout pin for manifests earlier builds
// wrote, which flag a slab carrying a float32-quantized section with
// "slab_quantized": true. Such an entry restores zero-copy from the
// slab under SlabExact and under SlabQuantized alike, both predicting
// bit-identically to the heap estimator.
func TestSlabQuantizedMode(t *testing.T) {
	setup(t)
	dir := t.TempDir()
	pub := openStore(t, dir, Options{})
	man := publishOne(t, pub, "tpch", plan.CPUTime, cpuEst)

	path := filepath.Join(pub.versionDir(man.Version), manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["models"].([]any)[0].(map[string]any)["slab_quantized"] = true
	if data, err = json.MarshalIndent(doc, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []SlabMode{SlabExact, SlabQuantized} {
		loaded, err := openStore(t, dir, Options{Slab: mode}).LoadVersion(man.Version)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if got := loaded.Layout[plan.CPUTime]; got != "mmap" {
			t.Fatalf("mode %d: layout %q, want mmap", mode, got)
		}
		for _, p := range testPlans {
			if got, want := loaded.Models[plan.CPUTime].PredictPlan(p), cpuEst.PredictPlan(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("mode %d: slab restore drifted: %v != %v", mode, got, want)
			}
		}
	}
}

// TestSlabDisabledAndLegacySnapshots: a SlabDisabled store publishes no
// slab files, and a default store restores slab-less (legacy) snapshots
// through JSON without complaint — forward and backward compatible.
func TestSlabDisabledAndLegacySnapshots(t *testing.T) {
	setup(t)
	dir := t.TempDir()
	off := openStore(t, dir, Options{Slab: SlabDisabled})
	man := publishOne(t, off, "tpch", plan.CPUTime, cpuEst)
	if e := man.Models[0]; e.SlabFile != "" || e.SlabSHA256 != "" {
		t.Fatalf("SlabDisabled publish recorded slab metadata: %+v", e)
	}
	if _, err := os.Stat(filepath.Join(off.versionDir(man.Version), "cpu.model.slab")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("SlabDisabled publish wrote a slab file: %v", err)
	}

	on := openStore(t, dir, Options{})
	loaded, err := on.LoadVersion(man.Version)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Layout[plan.CPUTime]; got != "json" {
		t.Fatalf("legacy snapshot layout %q, want json", got)
	}

	// The reverse direction: a SlabDisabled reader ignores slab files a
	// newer publisher wrote.
	man2 := publishOne(t, on, "tpch", plan.CPUTime, cpuEstB)
	loaded2, err := off.LoadVersion(man2.Version)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded2.Layout[plan.CPUTime]; got != "json" {
		t.Fatalf("SlabDisabled reader layout %q, want json", got)
	}
}

// TestGCRemovesSlabFiles: slabs live inside the snapshot directory, so
// retention GC prunes them with the snapshot — no orphaned slab files.
func TestGCRemovesSlabFiles(t *testing.T) {
	setup(t)
	st := openStore(t, t.TempDir(), Options{Retain: 1})
	man1 := publishOne(t, st, "tpch", plan.CPUTime, cpuEst)
	slab1 := filepath.Join(st.versionDir(man1.Version), "cpu.model.slab")
	if _, err := os.Stat(slab1); err != nil {
		t.Fatal(err)
	}
	publishOne(t, st, "tpch", plan.CPUTime, cpuEstB)
	if _, err := st.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(slab1); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("GC left v%d's slab behind: %v", man1.Version, err)
	}
}
