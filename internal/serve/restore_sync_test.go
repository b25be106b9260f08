package serve_test

// Tests for how a registry installs models it reads back from the
// store: a restore that meets a corrupt recorded snapshot, a follower
// sync that must leave the shared directory untouched and restore
// nothing while idle, the identity a route reports for a model that is
// in no snapshot, a long run of leader publishes a follower keeps up
// with, a rollback over snapshots that do not load, and a publish
// whose snapshot is not written.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
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

// TestSyncRemembersUnloadableSnapshot: a leader's newest snapshot that
// cannot load (both slabs gone, a model file's byte flipped) is tried
// by one follower poll, reported once, and skipped by the polls after
// it — no reload of the older snapshot the follower already serves,
// no repeated log line — while a later good publish still installs.
func TestSyncRemembersUnloadableSnapshot(t *testing.T) {
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

	var logged []string // the follower's registry and store log on the polling goroutine
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	st2, err := store.Open(dir, store.Options{Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	follower := serve.NewRegistry()
	follower.AttachStore(st2, logf)
	if synced, err := follower.SyncFromStore(); err != nil || len(synced) != 2 {
		t.Fatalf("first sync installed %d models (%v), want 2", len(synced), err)
	}

	bad := leader.PublishAs("tpch", cpuEst2, "retrain").Snapshot
	vdir := filepath.Join(dir, fmt.Sprintf("v%010d", bad))
	for _, name := range []string{"cpu.model.slab", "io.model.slab"} {
		if err := os.Remove(filepath.Join(vdir, name)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(vdir, "cpu.model.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	before := restores(st2)
	for i := range 10 {
		synced, err := follower.SyncFromStore()
		if err != nil {
			t.Fatal(err)
		}
		if len(synced) != 0 {
			t.Fatalf("sync %d past the unloadable v%d installed %d models", i, bad, len(synced))
		}
	}
	if got := restores(st2); got != before {
		t.Fatalf("10 syncs past the unloadable v%d made %d restores, want none", bad, got-before)
	}
	named := regexp.MustCompile(fmt.Sprintf(`\bv%d\b`, bad))
	if n := len(slices.DeleteFunc(slices.Clone(logged), func(line string) bool { return !named.MatchString(line) })); n > 1 {
		t.Fatalf("%d log lines name v%d, want at most one: %q", n, bad, logged)
	}
	p := testPlans[0]
	if m, _ := follower.Lookup("tpch", plan.CPUTime); math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst.PredictPlan(p)) {
		t.Fatal("follower stopped serving the last good cpu model")
	}

	good := leader.PublishAs("tpch", cpuEst2, "retrain").Snapshot
	synced, err := follower.SyncFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(synced) != 2 || synced[0].Snapshot != good || synced[1].Snapshot != good {
		t.Fatalf("sync after a good publish installed %+v, want both resources from v%d", synced, good)
	}
	if m, _ := follower.Lookup("tpch", plan.CPUTime); math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst2.PredictPlan(p)) {
		t.Fatal("follower does not serve the leader's good cpu model")
	}
}

// TestVersionVectorWithoutManifest: a route's reported checksum is the
// one recorded when it started serving its snapshot, on the leader that
// persisted it and on a follower that synced it, so it survives that
// snapshot's manifest leaving the disk.
func TestVersionVectorWithoutManifest(t *testing.T) {
	altSetup(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	leader := serve.NewRegistry()
	leader.AttachStore(st, t.Logf)
	leader.PublishAs("tpch", cpuEst, "bootstrap")
	snap := leader.PublishAs("tpch", ioEst, "bootstrap").Snapshot
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	follower := serve.NewRegistry()
	follower.AttachStore(st2, t.Logf)
	if synced, err := follower.SyncFromStore(); err != nil || len(synced) != 2 {
		t.Fatalf("sync installed %d models (%v), want 2", len(synced), err)
	}

	man, err := st.Manifest(snap)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, e := range man.Models {
		want[e.Resource] = e.SHA256
	}
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("v%010d", snap), "manifest.json")); err != nil {
		t.Fatal(err)
	}
	for name, reg := range map[string]*serve.Registry{"leader": leader, "follower": follower} {
		got := make(map[string]string)
		for _, rv := range reg.VersionVector() {
			if rv.Snapshot != snap {
				t.Errorf("%s reports %s/%s at v%d, want v%d", name, rv.Schema, rv.Resource, rv.Snapshot, snap)
			}
			got[rv.Resource] = rv.SHA256
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s reports checksums %v, want the manifest's %v", name, got, want)
		}
	}
}

// blockSnapshot makes the store's next publish fail after v: a
// non-empty directory where snapshot v+1 would be renamed into place.
func blockSnapshot(t *testing.T, dir string, v uint64) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, fmt.Sprintf("v%010d", v+1), "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
}

// route is reg's one route for (schema, resource) in its version
// vector.
func route(t *testing.T, reg *serve.Registry, schema string, resource plan.ResourceKind) serve.RouteVersion {
	t.Helper()
	for _, rv := range reg.VersionVector() {
		if rv.Schema == schema && rv.Resource == resource.WireName() {
			return rv
		}
	}
	t.Fatalf("no route %s/%s in %+v", schema, resource.WireName(), reg.VersionVector())
	return serve.RouteVersion{}
}

// TestFailedPersistMovesVersionChecksum: a publish whose snapshot
// write fails serves a model that is in no snapshot, so the route
// reports no snapshot and no checksum and the version checksum moves
// with the install. Rolling back to the persisted model reports its
// snapshot and checksum again, and the serving record names it.
func TestFailedPersistMovesVersionChecksum(t *testing.T) {
	altSetup(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	reg.AttachStore(st, t.Logf)
	snap := reg.PublishAs("tpch", cpuEst, "bootstrap").Snapshot
	man, err := st.Manifest(snap)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := man.Resource("cpu")
	if rv := route(t, reg, "tpch", plan.CPUTime); rv.Snapshot != snap || rv.SHA256 != e.SHA256 {
		t.Fatalf("persisted publish reports %+v, want v%d with its manifest's checksum", rv, snap)
	}
	before := serve.VersionChecksum(reg.VersionVector())

	blockSnapshot(t, dir, snap)
	if info := reg.PublishAs("tpch", cpuEst2, "upload"); info.Snapshot != 0 {
		t.Fatalf("publish with a blocked store claimed snapshot v%d", info.Snapshot)
	}
	if rv := route(t, reg, "tpch", plan.CPUTime); rv.Snapshot != 0 || rv.SHA256 != "" {
		t.Fatalf("unpersisted model reports %+v, want no snapshot and no checksum", rv)
	}
	if after := serve.VersionChecksum(reg.VersionVector()); after == before {
		t.Fatal("version checksum did not move when an unpersisted model replaced the persisted one")
	}

	if _, err := reg.Rollback("tpch", plan.CPUTime); err != nil {
		t.Fatal(err)
	}
	if rv := route(t, reg, "tpch", plan.CPUTime); rv.Snapshot != snap || rv.SHA256 != e.SHA256 {
		t.Fatalf("rollback to the persisted model reports %+v, want v%d with its manifest's checksum", rv, snap)
	}
	if cur := st.Current("tpch"); cur["cpu"] != snap {
		t.Fatalf("serving record after rollback = %v, want cpu v%d", cur, snap)
	}
}

// TestMemoryRollbackMovesVersionChecksum: a rollback from the
// in-memory history to a model published before the store was attached
// serves a model that is in no snapshot, so the version checksum moves
// and the route reports neither the rolled-away snapshot nor its
// checksum.
func TestMemoryRollbackMovesVersionChecksum(t *testing.T) {
	altSetup(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	reg.Publish("tpch", cpuEst)
	reg.AttachStore(st, t.Logf)
	if snap := reg.PublishAs("tpch", cpuEst2, "upload").Snapshot; snap == 0 {
		t.Fatal("publish after the attach did not persist")
	}
	before := serve.VersionChecksum(reg.VersionVector())
	if _, err := reg.Rollback("tpch", plan.CPUTime); err != nil {
		t.Fatal(err)
	}
	if after := serve.VersionChecksum(reg.VersionVector()); after == before {
		t.Fatal("version checksum did not move on an in-memory rollback")
	}
	if rv := route(t, reg, "tpch", plan.CPUTime); rv.Snapshot != 0 || rv.SHA256 != "" {
		t.Fatalf("model from before the attach reports %+v, want no snapshot and no checksum", rv)
	}
	if cur := st.Current("tpch"); cur["cpu"] != 0 {
		t.Fatalf("serving record after the rollback = %v, want no cpu entry", cur)
	}
}

// TestSyncLogsUnreadableManifestOnce: a leader's newest snapshot whose
// manifest does not parse is left out of every listing; over ten
// follower polls at most one log line names it.
func TestSyncLogsUnreadableManifestOnce(t *testing.T) {
	altSetup(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	leader := serve.NewRegistry()
	leader.AttachStore(st, t.Logf)
	leader.PublishAs("tpch", cpuEst, "bootstrap")

	var logged []string // the follower's registry and store log on the polling goroutine
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	st2, err := store.Open(dir, store.Options{Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	follower := serve.NewRegistry()
	follower.AttachStore(st2, logf)
	if synced, err := follower.SyncFromStore(); err != nil || len(synced) != 1 {
		t.Fatalf("first sync installed %d models (%v), want 1", len(synced), err)
	}

	bad := leader.PublishAs("tpch", cpuEst2, "retrain").Snapshot
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("v%010d", bad), "manifest.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		if synced, err := follower.SyncFromStore(); err != nil || len(synced) != 0 {
			t.Fatalf("sync %d past v%d's broken manifest installed %d models (%v)", i, bad, len(synced), err)
		}
	}
	named := regexp.MustCompile(fmt.Sprintf(`\bv%d\b`, bad))
	if n := len(slices.DeleteFunc(slices.Clone(logged), func(line string) bool { return !named.MatchString(line) })); n > 1 {
		t.Fatalf("%d log lines name v%d, want at most one: %q", n, bad, logged)
	}
}

// TestFollowerSoak runs leader publish → follower sync over one store
// directory for long enough to cross store GC (16 snapshots retained)
// and the registry's rollback history (8 per route) many times over.
// Replaced models hold nothing the GC cannot free: the heap at the end
// is within 2x of the heap at cycle 50, no slab file stays mapped, and
// the follower loads exactly the snapshots it installs. Nor does a
// cycle leave a goroutine or (on Linux) a file descriptor behind: both
// counts end within a few of where they stood at cycle 50.
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
	fds := func() int {
		if runtime.GOOS != "linux" {
			return 0
		}
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	var warmHeap uint64
	var warmGoroutines, warmFDs int
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
			warmGoroutines, warmFDs = runtime.NumGoroutine(), fds()
		}
	}
	endHeap := heap()
	const slack = 4
	if n := runtime.NumGoroutine(); n > warmGoroutines+slack {
		t.Errorf("goroutines grew from %d at cycle %d to %d at cycle %d", warmGoroutines, warm, n, cycles)
	}
	if n := fds(); n > warmFDs+slack {
		t.Errorf("open file descriptors grew from %d at cycle %d to %d at cycle %d", warmFDs, warm, n, cycles)
	}
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

// damageCPU makes snapshot v's cpu model fail to load: its slab goes
// (with it beside the tampered file, the load would route around the
// file) and one byte of its model file flips.
func damageCPU(t *testing.T, dir string, v uint64) {
	t.Helper()
	vdir := filepath.Join(dir, fmt.Sprintf("v%010d", v))
	if err := os.Remove(filepath.Join(vdir, "cpu.model.slab")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(vdir, "cpu.model.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// storeService is a service over a registry attached to a fresh store
// in dir, with its HTTP handler listening.
func storeService(t *testing.T, dir string, opts serve.Options) (*serve.Registry, *store.Store, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	reg.AttachStore(st, t.Logf)
	opts.Registry = reg
	ts := httptest.NewServer(newService(t, opts).Handler())
	t.Cleanup(ts.Close)
	return reg, st, ts
}

// TestRollbackSkipsCorruptSnapshot: rolling back from v3 over a v2
// whose cpu model does not load lands on v1, the newest older snapshot
// that loads, and the route reports v1 and v1's model checksum.
func TestRollbackSkipsCorruptSnapshot(t *testing.T) {
	altSetup(t)
	dir := t.TempDir()
	reg, st, ts := storeService(t, dir, serve.Options{})
	// v3's model predicts as v2's does but is saved with another
	// baseline, so its checksum differs from both older snapshots'.
	var buf bytes.Buffer
	if err := cpuEst2.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cpuEst3, err := core.LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cpuEst3.SetBaseline(testPlans)
	var vs []uint64
	for _, est := range []*core.Estimator{cpuEst, cpuEst2, cpuEst3} {
		vs = append(vs, reg.PublishAs("tpch", est, "upload").Snapshot)
	}
	sums := make([]string, len(vs))
	for i, v := range vs {
		man, err := st.Manifest(v)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := man.Resource("cpu")
		sums[i] = e.SHA256
	}
	if sums[1] == sums[2] {
		t.Fatal("v2 and v3 hold the same cpu model file")
	}
	damageCPU(t, dir, vs[1])

	resp, body := postJSON(t, ts.URL+"/models/rollback", map[string]string{"schema": "tpch", "resource": "cpu"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback over the corrupt v%d: %s: %s", vs[1], resp.Status, body)
	}
	var info serve.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Snapshot != vs[0] {
		t.Fatalf("rollback reports snapshot v%d, want v%d", info.Snapshot, vs[0])
	}
	if rv := route(t, reg, "tpch", plan.CPUTime); rv.Snapshot != vs[0] || rv.SHA256 != sums[0] {
		t.Fatalf("rolled-back route reports %+v, want v%d with checksum %s", rv, vs[0], sums[0])
	}
	p := testPlans[0]
	if m, _ := reg.Lookup("tpch", plan.CPUTime); math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst.PredictPlan(p)) {
		t.Fatal("rollback does not serve v1's model")
	}
	if cur := st.Current("tpch"); cur["cpu"] != vs[0] {
		t.Fatalf("serving record after rollback = %v, want cpu v%d", cur, vs[0])
	}
}

// TestRollbackCorruptStoreFallsBackToMemory: when no older snapshot
// loads, rollback pops the in-memory history instead of failing, and
// writes the popped model to a new snapshot that the serving record
// names, so a restart serves it rather than the model rolled away
// from.
func TestRollbackCorruptStoreFallsBackToMemory(t *testing.T) {
	altSetup(t)
	dir := t.TempDir()
	reg, st, ts := storeService(t, dir, serve.Options{})
	first := reg.PublishAs("tpch", cpuEst, "upload").Snapshot
	second := reg.PublishAs("tpch", cpuEst2, "upload").Snapshot
	if second == 0 {
		t.Fatal("second publish did not persist")
	}
	damageCPU(t, dir, first)

	resp, body := postJSON(t, ts.URL+"/models/rollback", map[string]string{"schema": "tpch", "resource": "cpu"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback with no intact older snapshot: %s: %s", resp.Status, body)
	}
	var info serve.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	p := testPlans[0]
	if m, _ := reg.Lookup("tpch", plan.CPUTime); math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst.PredictPlan(p)) {
		t.Fatal("rollback does not serve the model from the in-memory history")
	}
	if info.Snapshot <= second {
		t.Fatalf("rollback reports snapshot v%d, want a new one after v%d", info.Snapshot, second)
	}
	man, err := st.Manifest(info.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := man.Resource("cpu")
	if rv := route(t, reg, "tpch", plan.CPUTime); rv.Snapshot != info.Snapshot || rv.SHA256 != e.SHA256 {
		t.Fatalf("rolled-back route reports %+v, want v%d with checksum %s", rv, info.Snapshot, e.SHA256)
	}
	if cur := st.Current("tpch"); cur["cpu"] != info.Snapshot {
		t.Fatalf("serving record after rollback = %v, want cpu v%d", cur, info.Snapshot)
	}

	restarted := serve.NewRegistry()
	restarted.AttachStore(st, t.Logf)
	if _, err := restarted.RestoreFromStore(); err != nil {
		t.Fatal(err)
	}
	if m, _ := restarted.Lookup("tpch", plan.CPUTime); m == nil || math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst.PredictPlan(p)) {
		t.Fatal("a restart does not serve the rolled-back model")
	}
}

// TestPublishUnpersistedAnswers500: POST /models whose snapshot write
// fails answers 500 naming the version that serves regardless, in no
// snapshot.
func TestPublishUnpersistedAnswers500(t *testing.T) {
	altSetup(t)
	dir, models := t.TempDir(), t.TempDir()
	f, err := os.Create(filepath.Join(models, "cpu.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cpuEst2.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reg, _, ts := storeService(t, dir, serve.Options{ModelDir: models})
	blockSnapshot(t, dir, reg.PublishAs("tpch", cpuEst, "bootstrap").Snapshot)

	resp, body := postJSON(t, ts.URL+"/models", map[string]string{"schema": "tpch", "path": "cpu.json"})
	var e struct{ Error, Code string }
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	rv := route(t, reg, "tpch", plan.CPUTime)
	if resp.StatusCode != http.StatusInternalServerError || e.Code != "internal" {
		t.Fatalf("publish with a blocked store: %s: %s", resp.Status, body)
	}
	if !strings.Contains(e.Error, fmt.Sprintf("version %d ", rv.Version)) {
		t.Fatalf("error %q does not name the serving version %d", e.Error, rv.Version)
	}
	if rv.Snapshot != 0 {
		t.Fatalf("unpersisted upload reports snapshot v%d", rv.Snapshot)
	}
	p := testPlans[0]
	if m, _ := reg.Lookup("tpch", plan.CPUTime); math.Float64bits(m.Est.PredictPlan(p)) != math.Float64bits(cpuEst2.PredictPlan(p)) {
		t.Fatal("the uploaded model does not serve")
	}
}
