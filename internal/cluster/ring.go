// Package cluster is the distributed serving tier: a schema-affinity
// router that fronts N resserve replicas behind the single-node HTTP
// and stream surfaces, plus the fleet half of the feedback loop (an
// observation-segment forwarder that ships replica logs to one
// designated retrainer).
//
// Placement is consistent-hash by schema: all estimates for one
// schema land on one replica, so that replica's prediction cache and
// model working set stay hot, and per-schema responses stay
// self-consistent even mid-rollout. Overload or replica loss spills
// a schema to the next replica on the ring — but only to replicas
// serving the same model versions, so a client never flaps between
// model generations. The degradation ladder, in code order: admission
// sheds first; an admitted repeat with a live entry in the router's
// version-keyed response cache is answered from it, whatever the
// replicas' health; everything else is forwarded, spilled or retried
// on a version-consistent successor; and when no version-consistent
// replica is up the router sheds load with Retry-After.
package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/xrand"
)

// defaultVnodes is the virtual-node count per replica. 128 points per
// replica keeps the largest/smallest arc ratio low enough that key
// distribution is near-uniform for small fleets (pinned by test)
// while membership changes stay O(vnodes·log n).
const defaultVnodes = 128

// Ring is a consistent-hash ring over replica names. Immutable after
// build — membership changes build a new ring — so reads need no
// locks.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	names  []string    // distinct replica names, insertion order
}

type ringPoint struct {
	hash uint64
	name string
}

// NewRing builds a ring over names with the given virtual-node count
// per replica (0 = default). Duplicate names are dropped.
func NewRing(names []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	r := &Ring{vnodes: vnodes}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		r.names = append(r.names, n)
	}
	r.points = make([]ringPoint, 0, len(r.names)*vnodes)
	for _, n := range r.names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", n, v)), name: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical 64-bit hashes are vanishingly rare but must break
		// ties deterministically or placement would depend on sort
		// internals.
		return r.points[i].name < r.points[j].name
	})
	return r
}

// hashKey is FNV-1a with a splitmix64 finalizer: deterministic across
// processes and Go versions (unlike maphash), cheap, and — with the
// finalizer scattering FNV's weakly-avalanched output — well-mixed
// even for the sequential, shared-prefix names schemas and vnode keys
// actually have. Raw FNV-1a clusters such inputs badly enough to skew
// 16-replica placement 2.5× off fair share; the uniformity test pins
// the fix, the golden-assignment test pins the exact placements.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return xrand.Mix64(h.Sum64())
}

// Members returns the replica names on the ring.
func (r *Ring) Members() []string { return append([]string(nil), r.names...) }

// Pick returns the primary replica for key ("" when the ring is
// empty).
func (r *Ring) Pick(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].name
}

// PickN returns up to n distinct replicas in preference order for
// key: the primary first, then the spillover order — the successor
// walk around the ring. Every caller sees the same order for the same
// key, which is what keeps spillover traffic for one schema focused
// on one secondary instead of sprayed across the fleet.
func (r *Ring) PickN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.names) {
		n = len(r.names)
	}
	out := make([]string, 0, n)
	for i, start := 0, r.search(key); len(out) < n && i < len(r.points); i++ {
		// out holds at most one entry per replica, so a scan beats a map.
		if p := r.points[(start+i)%len(r.points)]; !slices.Contains(out, p.name) {
			out = append(out, p.name)
		}
	}
	return out
}

// search finds the first ring point at or clockwise of key's hash.
func (r *Ring) search(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
