package cluster

import (
	"fmt"
	"testing"
)

func ringNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("replica-%02d", i)
	}
	return names
}

// TestRingUniformity pins key-distribution uniformity: with 128
// vnodes per replica, no replica's share of a large key population
// strays far from fair, at any fleet size the router targets.
func TestRingUniformity(t *testing.T) {
	const keys = 20000
	for _, n := range []int{1, 2, 3, 4, 8, 16} {
		ring := NewRing(ringNames(n), 0)
		counts := make(map[string]int, n)
		for i := 0; i < keys; i++ {
			counts[ring.Pick(fmt.Sprintf("schema-%05d", i))]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d replicas received keys", n, len(counts))
		}
		fair := float64(keys) / float64(n)
		for name, c := range counts {
			ratio := float64(c) / fair
			// 128 vnodes keeps per-replica load within ~±35% of fair for
			// these fleet sizes; a regression in hashing or point layout
			// blows well past this.
			if ratio < 0.6 || ratio > 1.45 {
				t.Errorf("n=%d: replica %s holds %d keys (%.2fx fair share)", n, name, c, ratio)
			}
		}
	}
}

// TestRingMinimalRemapping pins the consistent-hashing contract: when
// a replica leaves, only its keys move — every key whose owner
// survives keeps its placement — and when a replica joins, the only
// keys that move are the ones the newcomer takes.
func TestRingMinimalRemapping(t *testing.T) {
	const keys = 10000
	names := ringNames(8)
	before := NewRing(names, 0)
	owner := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("schema-%05d", i)
		owner[k] = before.Pick(k)
	}

	removed := names[3]
	after := NewRing(append(append([]string(nil), names[:3]...), names[4:]...), 0)
	moved := 0
	for k, was := range owner {
		now := after.Pick(k)
		if was == removed {
			if now == removed {
				t.Fatalf("key %s still maps to removed replica", k)
			}
			moved++
			continue
		}
		if now != was {
			t.Fatalf("key %s moved %s -> %s though %s is still a member", k, was, now, was)
		}
	}
	if fair := keys / 8; moved < fair/2 || moved > fair*2 {
		t.Errorf("removal moved %d keys, want around %d (the removed replica's share)", moved, fair)
	}

	grown := NewRing(append(append([]string(nil), names...), "replica-new"), 0)
	joined := 0
	for k, was := range owner {
		now := grown.Pick(k)
		if now == was {
			continue
		}
		if now != "replica-new" {
			t.Fatalf("key %s moved %s -> %s on join; only the newcomer may take keys", k, was, now)
		}
		joined++
	}
	if fair := keys / 9; joined < fair/2 || joined > fair*2 {
		t.Errorf("join moved %d keys, want around %d (the newcomer's share)", joined, fair)
	}
}

// TestRingGoldenPlacement pins placements for a fixed schema set.
// FNV-1a is stable across processes and Go versions, so these
// assignments are deterministic: a router restart, a differently
// ordered replica flag, or a second router in front of the same fleet
// all route a schema to the same replica. If this test breaks, the
// hash or point layout changed and every deployed fleet would
// re-shard on upgrade — that must be deliberate.
func TestRingGoldenPlacement(t *testing.T) {
	ring := NewRing([]string{"replica-a", "replica-b", "replica-c"}, 0)
	golden := map[string]string{
		"":            "replica-b",
		"tpch":        "replica-c",
		"tpcds":       "replica-a",
		"imdb":        "replica-a",
		"ssb":         "replica-b",
		"accounts":    "replica-c",
		"web-logs":    "replica-a",
		"iot-metrics": "replica-b",
	}
	for schema, want := range golden {
		if got := ring.Pick(schema); got != want {
			t.Errorf("Pick(%q) = %q, want %q", schema, got, want)
		}
	}
	// Replica order in the flag must not matter: the ring hashes names,
	// not positions.
	reordered := NewRing([]string{"replica-c", "replica-a", "replica-b"}, 0)
	for schema, want := range golden {
		if got := reordered.Pick(schema); got != want {
			t.Errorf("reordered ring: Pick(%q) = %q, want %q", schema, got, want)
		}
	}
}

// TestRingPickN pins the spillover order's invariants: the primary
// leads, members are distinct, the walk is deterministic, and n past
// the member count truncates.
func TestRingPickN(t *testing.T) {
	ring := NewRing([]string{"replica-a", "replica-b", "replica-c"}, 0)
	got := ring.PickN("tpch", 3)
	want := []string{"replica-c", "replica-b", "replica-a"}
	if len(got) != len(want) {
		t.Fatalf("PickN = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PickN = %v, want %v", got, want)
		}
	}
	if first := ring.PickN("tpch", 1); len(first) != 1 || first[0] != ring.Pick("tpch") {
		t.Fatalf("PickN(_,1) = %v, want [%s]", first, ring.Pick("tpch"))
	}
	if over := ring.PickN("tpch", 10); len(over) != 3 {
		t.Fatalf("PickN(_,10) returned %d members, want 3", len(over))
	}
	if empty := NewRing(nil, 0).PickN("tpch", 2); empty != nil {
		t.Fatalf("empty ring PickN = %v, want nil", empty)
	}
}

var ringSink string

func BenchmarkRingPick(b *testing.B) {
	ring := NewRing(ringNames(8), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringSink = ring.Pick("tpch")
	}
}

func BenchmarkRingPickN(b *testing.B) {
	ring := NewRing(ringNames(8), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringSink = ring.PickN("tpch", 8)[7]
	}
}
