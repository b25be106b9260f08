//go:build linux || darwin

package store

import (
	"runtime"
	"testing"

	"repro/internal/plan"
)

// TestSlabRestoreAllocatesLessThanJSON is the clock-free form of the
// cold-start claim: restoring a snapshot over the mapped slab allocates
// at most a quarter of the heap bytes the JSON decode + recompile of
// the same snapshot does (without mmap the slab is read onto the heap,
// hence the build constraint). Restore time itself is the benchmark's
// core.slab_load_ms, core.json_load_ms and store.restore_ms.
func TestSlabRestoreAllocatesLessThanJSON(t *testing.T) {
	setup(t)
	dir := t.TempDir()
	slab := openStore(t, dir, Options{})
	man := publishOne(t, slab, "tpch", plan.CPUTime, cpuEst)

	// restoreBytes is the heap allocated by one restore; nothing else
	// in the package runs beside it, so the TotalAlloc delta is its own.
	restoreBytes := func(st *Store, wantLayout string) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		loaded, err := st.LoadVersion(man.Version)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.Layout[plan.CPUTime]; got != wantLayout {
			t.Fatalf("layout %q, want %q", got, wantLayout)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	slabBytes := restoreBytes(slab, "mmap")
	jsonBytes := restoreBytes(openStore(t, dir, Options{Slab: SlabDisabled}), "json")
	t.Logf("restore allocated %d B over the slab, %d B through JSON (%.1fx)",
		slabBytes, jsonBytes, float64(jsonBytes)/float64(slabBytes))
	if slabBytes*4 > jsonBytes {
		t.Errorf("slab restore allocated %d B, more than 1/4 of the JSON restore's %d B", slabBytes, jsonBytes)
	}
}
