package serve

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/features"
	"repro/internal/plan"
	"repro/internal/xrand"
)

// The prediction cache memoizes per-operator predictions across
// requests. Production plan streams repeat operator shapes heavily
// (the same scans, the same join templates at the same cardinalities),
// and a prediction is a pure function of (model versions, operator
// kind, feature vector) — the model-selection step included — so a
// cached value is exactly the value a fresh prediction would produce.
// Keying by model version makes hot-swaps self-invalidating: a new
// version simply stops matching the old entries, which age out of the
// LRU.
//
// An entry stores a full plan.Resources value and is keyed by a
// *version vector* — one model version slot per resource kind,
// populated for exactly the resources the request asked for. A
// multi-resource request therefore costs one probe and one entry for
// all its resources, and requests asking for the same resource set at
// the same model versions share entries regardless of the order they
// listed the resources in.

// Versions is a request's model identity, to the prediction cache and
// to the stream listener's response cache: the registry version of the
// model serving each requested resource kind, zero for resources the
// request did not ask for (registry versions start at 1).
type Versions [plan.NumResources]uint64

// cacheKey identifies one memoized prediction. features.Vector is a
// fixed-size float array, so the whole key is comparable and can be a
// map key directly; equality is exact (bit-for-bit feature match).
type cacheKey struct {
	versions Versions
	op       plan.OpKind
	vec      features.Vector
}

// hash is a word-wise FNV-1a variant over the key, used only to pick a
// shard. Mixing whole 64-bit words (instead of the byte-wise textbook
// form) cuts the per-probe hashing cost by ~8x on these 200+-byte keys.
// FNV's multiply only carries differences upward, so keys that differ
// in floats with zero low mantissa bits (small integers) agree in the
// low bits the shard index is taken from; the finalizer avalanches them.
func (k *cacheKey) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range k.versions {
		h = (h ^ v) * prime64
	}
	h = (h ^ uint64(k.op)) * prime64
	for _, f := range k.vec {
		h = (h ^ math.Float64bits(f)) * prime64
	}
	return xrand.Mix64(h)
}

// memoizable reports whether the key can be looked up again: a NaN
// never equals itself, so a map entry keyed by one is found by no later
// probe and removed by no eviction. JSON carries no NaN; an in-process
// plan can, and Inf x 0 in feature extraction makes one.
func (k *cacheKey) memoizable() bool {
	for _, f := range k.vec {
		if math.IsNaN(f) {
			return false
		}
	}
	return true
}

const cacheShards = 32

type cacheEntry struct {
	key cacheKey
	val plan.Resources
}

type cacheShard struct {
	mu  sync.Mutex
	m   map[cacheKey]*list.Element
	lru list.List // front = most recently used
	cap int
	// Per-shard hit/miss tallies, guarded by mu (the lock is already
	// held at every lookup, so these cost no extra synchronization).
	// The global atomic counters remain the wire-visible totals.
	hits   uint64
	misses uint64
}

// Cache is a sharded LRU of operator predictions with hit/miss
// counters. Shards bound lock contention under concurrent serving; the
// per-shard LRU bounds memory.
type Cache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// NewCache builds a cache bounded to roughly capacity entries in total.
// Returns nil (a disabled cache) when capacity <= 0; a nil *Cache is
// valid to call and never hits.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]*list.Element)
		c.shards[i].cap = per
	}
	return c
}

// probe is one slot of a batched lookup: the key going in; the
// memoized value, the outcome and the key's shard coming out. node and
// slot are the caller's (the estimate pipeline keeps the operator the
// key was extracted from, and parks each miss's index into its
// deduplicated prediction batch), so one slice of these is a request's
// whole per-operator state.
type probe struct {
	key   cacheKey
	val   plan.Resources
	node  *plan.Node
	slot  int32
	shard uint8
	hit   bool
}

// shardPlan groups a probe batch by shard: per shard s, the probe
// indexes order[starts[s]:starts[s+1]]. GetMulti builds it — hashing
// each key once — and hands it to the PutMulti that follows.
type shardPlan struct {
	order  []int32
	starts [cacheShards + 1]int32
}

// planShards is a counting sort of the batch by shard.
func planShards(ps []probe) shardPlan {
	sp := shardPlan{order: make([]int32, len(ps))}
	var counts [cacheShards]int32
	for i := range ps {
		s := uint8(ps[i].key.hash() % cacheShards)
		ps[i].shard = s
		counts[s]++
	}
	var sum int32
	for s := 0; s < cacheShards; s++ {
		sp.starts[s] = sum
		sum += counts[s]
	}
	sp.starts[cacheShards] = sum
	next := sp.starts
	for i := range ps {
		s := ps[i].shard
		sp.order[next[s]] = int32(i)
		next[s]++
	}
	return sp
}

// GetMulti looks up a whole batch of keys, writing each probe's
// memoized value and outcome, and returns the hit count plus the shard
// grouping for a follow-up PutMulti (zero when the cache is disabled,
// which never hits). Keys are grouped by shard so each shard lock is
// taken at most once per batch instead of once per key; the counters
// are bumped once with the batch totals.
func (c *Cache) GetMulti(ps []probe) (int, shardPlan) {
	if c == nil {
		for i := range ps {
			ps[i].hit = false
		}
		return 0, shardPlan{}
	}
	sp := planShards(ps)
	hits := 0
	for si := 0; si < cacheShards; si++ {
		group := sp.order[sp.starts[si]:sp.starts[si+1]]
		if len(group) == 0 {
			continue
		}
		s := &c.shards[si]
		shardHits := 0
		s.mu.Lock()
		for _, i := range group {
			p := &ps[i]
			el, ok := s.m[p.key]
			p.hit = ok
			if ok {
				s.lru.MoveToFront(el)
				p.val = el.Value.(*cacheEntry).val
				shardHits++
			}
		}
		s.hits += uint64(shardHits)
		s.misses += uint64(len(group) - shardHits)
		s.mu.Unlock()
		hits += shardHits
	}
	c.hits.Add(uint64(hits))
	c.misses.Add(uint64(len(ps) - hits))
	return hits, sp
}

// PutMulti memoizes the misses of the GetMulti that returned sp — those
// a later probe can find — evicting the least recently used entry of a
// shard when it is full.
func (c *Cache) PutMulti(ps []probe, sp shardPlan) {
	if c == nil {
		return
	}
	for si := 0; si < cacheShards; si++ {
		group := sp.order[sp.starts[si]:sp.starts[si+1]]
		locked := false
		s := &c.shards[si]
		for _, i := range group {
			p := &ps[i]
			if p.hit || !p.key.memoizable() {
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
			}
			if el, ok := s.m[p.key]; ok {
				el.Value.(*cacheEntry).val = p.val
				s.lru.MoveToFront(el)
				continue
			}
			s.m[p.key] = s.lru.PushFront(&cacheEntry{key: p.key, val: p.val})
			if s.lru.Len() > s.cap {
				old := s.lru.Back()
				s.lru.Remove(old)
				delete(s.m, old.Value.(*cacheEntry).key)
			}
		}
		if locked {
			s.mu.Unlock()
		}
	}
}

// ShardCacheStats is one shard's counter snapshot — the per-shard view
// behind the resserve_cache_shard_* Prometheus series. Skewed hit
// ratios across shards expose pathological key distributions that the
// aggregate counters average away.
type ShardCacheStats struct {
	Shard   int
	Hits    uint64
	Misses  uint64
	Entries int
}

// ShardStats snapshots every shard's counters. Nil (disabled) caches
// return nil.
func (c *Cache) ShardStats() []ShardCacheStats {
	if c == nil {
		return nil
	}
	out := make([]ShardCacheStats, cacheShards)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out[i] = ShardCacheStats{Shard: i, Hits: s.hits, Misses: s.misses, Entries: s.lru.Len()}
		s.mu.Unlock()
	}
	return out
}

// Stats snapshots the counters and current occupancy.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.lru.Len()
		s.mu.Unlock()
		st.Capacity += s.cap
	}
	return st
}
