package serve

import (
	"errors"
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/store"
)

// TestPushHistoryOrdersByVersion pins the rollback-ordering invariant
// pushHistory maintains: concurrent publishes reach it in arbitrary
// interleavings, so it must sort entries by version rather than trust
// arrival order — otherwise Rollback could skip the version that
// actually served last. Exercised deterministically here by pushing out
// of order.
func TestPushHistoryOrdersByVersion(t *testing.T) {
	r := NewRegistry()
	key := ModelKey{Schema: "s", Resource: plan.CPUTime}
	for _, v := range []uint64{4, 2, 9, 1, 7} {
		r.pushHistory(key, &Model{Info: ModelInfo{Version: v}})
	}
	h := r.history[key]
	if len(h) != 5 {
		t.Fatalf("history holds %d entries, want 5", len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i-1].Info.Version >= h[i].Info.Version {
			t.Fatalf("history out of order at %d: %d then %d", i, h[i-1].Info.Version, h[i].Info.Version)
		}
	}
	// The cap drops the oldest versions, keeping the newest 8.
	for v := uint64(10); v < 20; v++ {
		r.pushHistory(key, &Model{Info: ModelInfo{Version: v}})
	}
	h = r.history[key]
	if len(h) != historyCap {
		t.Fatalf("history holds %d entries, want cap %d", len(h), historyCap)
	}
	if h[0].Info.Version != 12 || h[len(h)-1].Info.Version != 19 {
		t.Fatalf("cap kept versions %d..%d, want 12..19", h[0].Info.Version, h[len(h)-1].Info.Version)
	}
}

// TestHistoryReleasesDroppedModels: a model that leaves the rollback
// history — cut off past historyCap, or popped by a rollback — is
// garbage once nothing else holds it. The history's backing array,
// which the GC scans whole, keeps no reference to it.
func TestHistoryReleasesDroppedModels(t *testing.T) {
	r := NewRegistry()
	const publishes = historyCap + 3 // the first two fall off the history
	var models []weak.Pointer[Model]
	for range publishes {
		r.Publish("s", &core.Estimator{Resource: plan.CPUTime})
		m, _ := r.Lookup("s", plan.CPUTime)
		models = append(models, weak.Make(m))
	}
	// The rollback pops the newest history entry and republishes its
	// estimator as a new Model; the popped Model is garbage.
	if _, err := r.Rollback("s", plan.CPUTime); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	for _, i := range []int{0, 1, publishes - 2} {
		if models[i].Value() != nil {
			t.Errorf("model %d is still reachable after leaving the history", i+1)
		}
	}
	if models[2].Value() == nil {
		t.Error("the oldest model the history keeps was collected")
	}
	runtime.KeepAlive(r)
}

// TestRollbackConflictReportsWinner pins the losing-rollback contract:
// when a concurrent publish wins the slot between Rollback's history
// pop and its install, the returned ModelInfo must name the version
// that actually serves — not a zero value — alongside
// ErrRollbackConflict, and the popped history entry must be restored
// for a retry. The interleaving is reproduced deterministically by
// installing the racing winner directly into the slot, exactly where a
// concurrent Publish would have CASed it.
func TestRollbackConflictReportsWinner(t *testing.T) {
	r := NewRegistry()
	est := func() *core.Estimator { return &core.Estimator{Resource: plan.CPUTime} }
	r.Publish("s", est()) // v1 → history after next publish
	r.Publish("s", est()) // v2 serving, history [v1]
	key := ModelKey{Schema: "s", Resource: plan.CPUTime}

	// The racing publish: a higher version lands in the slot before the
	// rollback's own publish (which will allocate v3 < 99) can install.
	winner := &Model{
		Info: ModelInfo{Schema: "s", Resource: "CPU", Version: 99},
		Est:  est(),
	}
	r.mu.RLock()
	r.slots[key].Store(winner)
	r.mu.RUnlock()

	info, err := r.Rollback("s", plan.CPUTime)
	if !errors.Is(err, ErrRollbackConflict) {
		t.Fatalf("rollback yielded %v, want ErrRollbackConflict", err)
	}
	if info.Version != winner.Info.Version {
		t.Fatalf("conflict reported version %d, want the winner's %d", info.Version, winner.Info.Version)
	}
	if got := len(r.history[key]); got != 1 {
		t.Fatalf("history holds %d entries after failed rollback, want the restored 1", got)
	}
	if cur := r.slots[key].Load(); cur != winner {
		t.Fatal("failed rollback displaced the winning model")
	}
}

// TestPersistSnapshotCursorMonotonic pins the racing-publish guard:
// a straggler whose snapshot version is older than the cursor must not
// drag the serving cursor (and hence the durable current.json a
// restart restores from) backwards.
func TestPersistSnapshotCursorMonotonic(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	r.AttachStore(st, nil)
	r.PublishAs("s", &core.Estimator{Resource: plan.CPUTime}, "test") // snapshot v1
	key := ModelKey{Schema: "s", Resource: plan.CPUTime}

	// Simulate the faster racer having already persisted snapshot 7.
	r.storeMu.Lock()
	r.cursor[key] = 7
	r.storeMu.Unlock()

	// The straggler's persist allocates snapshot v2 (< 7): the cursor
	// must hold.
	if _, err := r.persistSnapshot("s", "test"); err != nil {
		t.Fatal(err)
	}
	r.storeMu.Lock()
	got := r.cursor[key]
	r.storeMu.Unlock()
	if got != 7 {
		t.Fatalf("straggler persist moved the cursor to %d, want 7 kept", got)
	}
	if cur := st.Current("s"); cur["cpu"] != 7 {
		t.Fatalf("durable cursor moved to %d, want 7 kept", cur["cpu"])
	}
}
