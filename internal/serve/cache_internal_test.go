package serve

import (
	"math"
	"testing"

	"repro/internal/plan"
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
