package serve_test

// Tests for how a registry installs models it reads back from the
// store: a restore that meets a corrupt recorded snapshot, a follower
// sync that must leave the shared directory untouched and restore
// nothing while idle, and a long run of leader publishes a follower
// keeps up with.

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
)

// TestRestoreSkipsCorruptRecordedSnapshot: a route whose recorded
// snapshot no longer loads restores from the newest intact snapshot
// (and says so in the log), while a route whose recorded snapshot is
// intact restores from that one, not from the newest.
func TestRestoreSkipsCorruptRecordedSnapshot(t *testing.T) {
	altSetup(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var vs []uint64
	for _, cpu := range []*core.Estimator{cpuEst, cpuEst2, cpuEst} {
		man, err := st.Publish(store.Snapshot{Schema: "tpch", Models: map[plan.ResourceKind]*core.Estimator{
			plan.CPUTime: cpu, plan.LogicalIO: ioEst,
		}})
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, man.Version)
	}
	if err := st.SetCurrent("tpch", map[string]uint64{"cpu": vs[1], "io": vs[0]}); err != nil {
		t.Fatal(err)
	}
	// The slab goes too: with it beside the tampered model file, the
	// load would route around the file rather than fail.
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("v%010d", vs[1]), "cpu.model.slab")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("v%010d", vs[1]), "cpu.model.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var logged []string // RestoreFromStore logs on this goroutine
	reg := serve.NewRegistry()
	reg.AttachStore(st2, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	restored, err := reg.RestoreFromStore()
	if err != nil {
		t.Fatal(err)
	}
	snap := make(map[string]uint64)
	for _, info := range restored {
		snap[info.Resource] = info.Snapshot
	}
	if want := map[string]uint64{plan.CPUTime.String(): vs[2], plan.LogicalIO.String(): vs[0]}; !maps.Equal(snap, want) {
		t.Fatalf("restored from snapshots %v, want %v", snap, want)
	}
	p := testPlans[0]
	if m, _ := reg.Lookup("tpch", plan.CPUTime); math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst.PredictPlan(p)) {
		t.Fatal("cpu did not restore the newest intact snapshot's model")
	}
	if m, _ := reg.Lookup("tpch", plan.LogicalIO); math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(ioEst.PredictPlan(p)) {
		t.Fatal("io did not restore its recorded snapshot's model")
	}
	if !slices.ContainsFunc(logged, func(line string) bool {
		return strings.Contains(line, "restore") && strings.Contains(line, fmt.Sprintf("v%d", vs[1]))
	}) {
		t.Fatalf("no log line reports skipping v%d: %q", vs[1], logged)
	}
	// The record now names what actually serves.
	if cur := st2.Current("tpch"); cur["cpu"] != vs[2] || cur["io"] != vs[0] {
		t.Fatalf("serving record after restore = %v, want cpu v%d io v%d", cur, vs[2], vs[0])
	}
}

// TestSyncWritesNothing pins the follower contract: SyncFromStore over
// a directory a leader writes changes no byte of the serving record
// and no snapshot directory — even when that record names an older
// snapshot (a rolled-back route) than the one the follower installs.
func TestSyncWritesNothing(t *testing.T) {
	altSetup(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	leader := serve.NewRegistry()
	leader.AttachStore(st, t.Logf)
	leader.PublishAs("tpch", cpuEst, "bootstrap")
	leader.PublishAs("tpch", ioEst, "bootstrap")
	newest := leader.PublishAs("tpch", cpuEst2, "upload").Snapshot
	rb, err := leader.Rollback("tpch", plan.CPUTime)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Snapshot == 0 || rb.Snapshot >= newest {
		t.Fatalf("rollback serves snapshot v%d, want one older than v%d", rb.Snapshot, newest)
	}

	state := func() (string, []string) {
		t.Helper()
		current, err := os.ReadFile(filepath.Join(dir, "current.json"))
		if err != nil {
			t.Fatal(err)
		}
		snaps, err := filepath.Glob(filepath.Join(dir, "v*"))
		if err != nil {
			t.Fatal(err)
		}
		return string(current), snaps
	}
	currentBefore, snapsBefore := state()

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	follower := serve.NewRegistry()
	follower.AttachStore(st2, t.Logf)
	synced, err := follower.SyncFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(synced) != 2 {
		t.Fatalf("sync installed %d models, want the newest snapshot's 2", len(synced))
	}
	for _, info := range synced {
		if info.Snapshot != newest {
			t.Fatalf("sync installed %s from v%d, want v%d", info.Resource, info.Snapshot, newest)
		}
	}
	currentAfter, snapsAfter := state()
	if currentAfter != currentBefore {
		t.Fatalf("sync rewrote current.json:\nbefore %s\nafter  %s", currentBefore, currentAfter)
	}
	if !slices.Equal(snapsAfter, snapsBefore) {
		t.Fatalf("sync changed the snapshot directories: %v → %v", snapsBefore, snapsAfter)
	}
}

// restores is how many snapshot loads st has made.
func restores(st *store.Store) uint64 {
	_, restore := st.Timings()
	return restore.Count
}

// TestIdleSyncRestoresNothing: once a follower serves the newest
// snapshot, polls that find nothing newer load nothing — the manifests
// say so — and a newer leader publish is still installed on the next.
func TestIdleSyncRestoresNothing(t *testing.T) {
	altSetup(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	leader := serve.NewRegistry()
	leader.AttachStore(st, t.Logf)
	leader.PublishAs("tpch", cpuEst, "bootstrap")
	leader.PublishAs("tpch", ioEst, "bootstrap")

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	follower := serve.NewRegistry()
	follower.AttachStore(st2, t.Logf)
	if synced, err := follower.SyncFromStore(); err != nil || len(synced) != 2 {
		t.Fatalf("first sync installed %d models (%v), want 2", len(synced), err)
	}
	before := restores(st2)
	for i := range 50 {
		synced, err := follower.SyncFromStore()
		if err != nil {
			t.Fatal(err)
		}
		if len(synced) != 0 {
			t.Fatalf("idle sync %d installed %d models", i, len(synced))
		}
	}
	if got := restores(st2); got != before {
		t.Fatalf("50 idle syncs made %d restores, want none", got-before)
	}

	newest := leader.PublishAs("tpch", cpuEst2, "retrain").Snapshot
	synced, err := follower.SyncFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(synced) != 2 || synced[0].Snapshot != newest || synced[1].Snapshot != newest {
		t.Fatalf("sync after a publish installed %+v, want both resources from v%d", synced, newest)
	}
	if got := restores(st2); got != before+1 {
		t.Fatalf("sync after a publish made %d restores, want 1", got-before)
	}
	p := testPlans[0]
	if m, _ := follower.Lookup("tpch", plan.CPUTime); math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst2.PredictPlan(p)) {
		t.Fatal("follower does not serve the leader's newest cpu model")
	}
}

// TestFollowerSoak runs leader publish → follower sync over one store
// directory for long enough to cross store GC (16 snapshots retained)
// and the registry's rollback history (8 per route) many times over.
// Replaced models hold nothing the GC cannot free: the heap at the end
// is within 2x of the heap at cycle 50, no slab file stays mapped, and
// the follower loads exactly the snapshots it installs.
func TestFollowerSoak(t *testing.T) {
	altSetup(t)
	const cycles, warm = 200, 50
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	leader := serve.NewRegistry()
	leader.AttachStore(st, nil)
	first := leader.PublishAs("tpch", ioEst, "bootstrap").Snapshot

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	follower := serve.NewRegistry()
	follower.AttachStore(st2, t.Logf)

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var warmHeap uint64
	installed := make(map[uint64]bool)
	for i := range cycles {
		est := cpuEst
		if i%2 == 1 {
			est = cpuEst2
		}
		snap := leader.PublishAs("tpch", est, "retrain").Snapshot
		synced, err := follower.SyncFromStore()
		if err != nil {
			t.Fatal(err)
		}
		if len(synced) != 2 {
			t.Fatalf("cycle %d: sync installed %d models, want 2", i, len(synced))
		}
		for _, info := range synced {
			if info.Snapshot != snap {
				t.Fatalf("cycle %d: sync installed %s from v%d, want v%d", i, info.Resource, info.Snapshot, snap)
			}
			installed[info.Snapshot] = true
		}
		if i+1 == warm {
			warmHeap = heap()
		}
	}
	endHeap := heap()
	t.Logf("heap %d B at cycle %d, %d B at cycle %d", warmHeap, warm, endHeap, cycles)
	if endHeap > 2*warmHeap {
		t.Errorf("heap grew from %d B at cycle %d to %d B at cycle %d", warmHeap, warm, endHeap, cycles)
	}
	if got := restores(st2); got != uint64(len(installed)) {
		t.Errorf("follower made %d restores for %d installed snapshots", got, len(installed))
	}
	if _, err := st.Manifest(first); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("store GC kept the first snapshot v%d: %v", first, err)
	}
	if runtime.GOOS == "linux" {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(maps), ".model.slab"); n != 0 {
			t.Errorf("%d slab files are still mapped", n)
		}
	}
	p := testPlans[0]
	if m, _ := follower.Lookup("tpch", plan.CPUTime); math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst2.PredictPlan(p)) {
		t.Fatal("follower does not serve the leader's last cpu model")
	}
}
