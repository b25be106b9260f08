package serve

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestCacheBoundedUnderNaNKeys: a key holding a NaN equals no key, its
// own next probe included, so memoizing it would add a map entry that
// no eviction can delete. Such predictions are served and not kept;
// the keys beside them in the batch are memoized as ever.
func TestCacheBoundedUnderNaNKeys(t *testing.T) {
	const capacity = 32
	c := NewCache(capacity)
	for i := 0; i < 10000; i++ {
		ps := make([]probe, 2)
		ps[0].key = cacheKey{op: plan.Filter}
		ps[0].key.vec[0], ps[0].key.vec[1] = float64(i), math.NaN()
		ps[1].key = cacheKey{op: plan.Filter}
		ps[1].key.vec[0] = float64(i)
		if hits, _ := c.GetMulti(ps[:1]); hits != 0 {
			t.Fatalf("put %d: a NaN-bearing key hit", i)
		}
		_, sp := c.GetMulti(ps)
		ps[0].val.CPU, ps[1].val.CPU = 1, 2
		c.PutMulti(ps, sp)
		if hits, _ := c.GetMulti(ps); hits != 1 || !ps[1].hit || ps[1].val.CPU != 2 {
			t.Fatalf("put %d: %d hits on the pair just put, want the plain key's", i, hits)
		}
	}
	entries := 0
	for i := range c.shards {
		s := &c.shards[i]
		if len(s.m) != s.lru.Len() {
			t.Errorf("shard %d: %d map entries beside %d list entries", i, len(s.m), s.lru.Len())
		}
		entries += len(s.m)
	}
	if entries > capacity {
		t.Fatalf("%d map entries in a %d-entry cache after 10000 NaN-keyed puts", entries, capacity)
	}
}

// shardSpread hashes the keys to their shards and returns the fullest
// shard's occupancy over the mean.
func shardSpread(keys []cacheKey) float64 {
	var counts [cacheShards]int
	max := 0
	for i := range keys {
		s := keys[i].hash() % cacheShards
		if counts[s]++; counts[s] > max {
			max = counts[s]
		}
	}
	return float64(max) * cacheShards / float64(len(keys))
}

// TestCacheKeysSpreadOverShards: the shard index is the hash's low
// bits, which word-wise FNV leaves equal across keys whose floats
// differ only high in the word — small integers, most of what a plan's
// features are. Pinned on such a synthetic set (one shard held all of
// it before the hash was finished with Mix64) and on the distinct
// operator keys of a generated TPC-H workload.
func TestCacheKeysSpreadOverShards(t *testing.T) {
	ints := make([]cacheKey, 4096)
	for i := range ints {
		ints[i] = cacheKey{op: plan.Filter}
		ints[i].vec[0], ints[i].vec[1] = float64(i%64), float64(i/64)
	}

	cfg := workload.DefaultConfig()
	cfg.N = 512
	cfg.Seed = 11
	eng := engine.New(nil)
	seen := make(map[cacheKey]struct{})
	var tpch []cacheKey
	for _, q := range workload.GenTPCH(cfg) {
		eng.Run(q.Plan)
		vecs := features.ExtractPlan(q.Plan, features.Exact)
		for i, n := range q.Plan.Nodes() {
			k := cacheKey{versions: Versions{1}, op: n.Kind, vec: vecs[i]}
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				tpch = append(tpch, k)
			}
		}
	}
	if len(tpch) < 2048 {
		t.Fatalf("only %d distinct operator keys in the workload: too few to judge the spread", len(tpch))
	}

	for _, c := range []struct {
		name string
		keys []cacheKey
	}{{"small integers", ints}, {"tpch", tpch}} {
		if spread := shardSpread(c.keys); spread > 1.5 {
			t.Errorf("%s: fullest shard holds %.2fx the mean of %d keys over %d shards, want <= 1.5x",
				c.name, spread, len(c.keys), cacheShards)
		} else {
			t.Logf("%s: %d keys, fullest shard %.2fx the mean", c.name, len(c.keys), spread)
		}
	}
}
