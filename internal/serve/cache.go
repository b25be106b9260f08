package serve

import (
	"math"
	"slices"
	"sync"

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
// version simply stops matching the old entries, which nothing visits
// again, so the eviction hand takes them on its next pass.
//
// An entry stores a full plan.Resources value and is keyed by a
// *version vector* — one model version slot per resource kind,
// populated for exactly the resources the request asked for. A
// multi-resource request therefore costs one probe and one entry for
// all its resources, and requests asking for the same resource set at
// the same model versions share entries regardless of the order they
// listed the resources in.

// Versions is a request's model identity, to the prediction cache and
// to the service's response cache: the registry version of the
// model serving each requested resource kind, zero for resources the
// request did not ask for (registry versions start at 1).
type Versions [plan.NumResources]uint64

// cacheKey identifies one memoized prediction. features.Vector is a
// fixed-size float array, so the whole key is comparable with ==;
// equality is exact (bit-for-bit feature match, but for a zero's sign).
type cacheKey struct {
	versions Versions
	op       plan.OpKind
	vec      features.Vector
}

// hash is a word-wise FNV-1a variant over the key, computed once per
// operator per request, where the key is built: that one value picks
// the shard, indexes it and deduplicates a batch's misses (as a map key
// the struct would be hashed by the runtime one float at a time, at
// every lookup, assignment and delete). Mixing whole 64-bit words
// instead of bytes cuts the cost ~8x on these 200+-byte keys. FNV's
// multiply only carries differences upward, and floats that are small
// integers — most of a plan's features — differ only high in the word,
// so each step folds its high half into its low half: without that such
// keys differ in the hash's top 16 bits alone and collide by the
// thousand. The finalizer avalanches the last words into the low bits
// the shard index is taken from. Floats hash by their bits, so keys
// that are == but for a zero's sign are memoized apart, each under a
// value computed from its own vector.
func (k *cacheKey) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	step := func(h, word uint64) uint64 {
		h = (h ^ word) * prime64
		return h ^ h>>32
	}
	h := uint64(offset64)
	for _, v := range k.versions {
		h = step(h, v)
	}
	h = step(h, uint64(k.op))
	for _, f := range k.vec {
		h = step(h, math.Float64bits(f))
	}
	return xrand.Mix64(h)
}

// memoizable reports whether the key can be looked up again: a NaN
// never equals itself, so an entry keyed by one is found by no later
// probe. JSON carries no NaN; an in-process plan can, and Inf x 0 in
// feature extraction makes one.
func (k *cacheKey) memoizable() bool {
	for _, f := range k.vec {
		if math.IsNaN(f) {
			return false
		}
	}
	return true
}

const cacheShards = 32

// cacheEntry is one slot of a shard's slab: the memoized prediction,
// the key it belongs to (compared before the value is handed out), the
// key's hash (to drop the index entry when the slot is reused), the
// slot's neighbours in the shard's queue and whether a lookup has found
// it since it was filed or since the hand last passed it.
type cacheEntry struct {
	key        cacheKey
	val        plan.Resources
	hash       uint64
	prev, next int32
	visited    bool
}

// cacheShard is a SIEVE cache (Zhang et al., NSDI '24) over a slab: idx
// maps a key's hash to its slot in ents, and the slots are linked, by
// index, into a FIFO queue through the sentinel ents[0] — ents[0].next
// is the newest slot, ents[0].prev the oldest, and a slot's prev is its
// newer neighbour. A hit sets the slot's visited bit and moves nothing;
// to make room, the hand walks from where it last stopped toward the
// newest slot, wrapping to the oldest, clears each visited bit it
// passes and takes the first unvisited slot. Hot operators recur all
// through a pass over the plans, among many keys used once: the once
// used leave first, where LRU would keep them and evict the hot ones.
// The slab grows by doubling until it holds cap entries and from then
// on an insert reuses the victim's slot in place, so an entry costs its
// 256 bytes plus an index entry and a steady-state insert allocates
// nothing. Slots are addressed by index only: growing moves the slab.
//
// One entry per hash: a key arriving under a resident key's hash takes
// the slot over, and a lookup hands a value out only when the stored
// key equals the probe's, so two keys sharing a 64-bit hash cost each
// other a miss and never a wrong value.
type cacheShard struct {
	mu   sync.Mutex
	idx  map[uint64]int32
	ents []cacheEntry
	cap  int
	hand int32 // the slot the next eviction walk starts at; 0: the oldest
	// Per-shard hit/miss tallies, guarded by mu (the lock is already
	// held at every lookup, so these cost no extra synchronization).
	// Stats sums them into the wire-visible totals.
	hits   uint64
	misses uint64
}

// unlink takes slot i out of the queue.
func (s *cacheShard) unlink(i int32) {
	e := &s.ents[i]
	s.ents[e.prev].next = e.next
	s.ents[e.next].prev = e.prev
}

// pushFront links slot i in as the newest.
func (s *cacheShard) pushFront(i int32) {
	head := s.ents[0].next
	s.ents[i].prev, s.ents[i].next = 0, head
	s.ents[head].prev = i
	s.ents[0].next = i
}

// evict unlinks the hand's victim and returns its slot, leaving the
// hand at the victim's newer neighbour.
func (s *cacheShard) evict() int32 {
	i := s.hand
	for {
		if i == 0 {
			i = s.ents[0].prev
		}
		e := &s.ents[i]
		if !e.visited {
			break
		}
		e.visited = false
		i = e.prev
	}
	s.hand = s.ents[i].prev
	s.unlink(i)
	return i
}

// get looks p's key up under p.hash, counting the outcome. Caller holds
// mu.
func (s *cacheShard) get(p *probe) bool {
	i, ok := s.idx[p.hash]
	if !ok || s.ents[i].key != p.key {
		s.misses++
		return false
	}
	s.ents[i].visited = true
	p.val = s.ents[i].val
	s.hits++
	return true
}

// put memoizes p's value: over the slot p.hash already indexes (p's own
// key, or another one under the same hash), which keeps its place and
// its visited bit; otherwise as the newest entry, unvisited, in a new
// slot while the shard has room and in the hand's victim's slot once it
// is full. Caller holds mu.
func (s *cacheShard) put(p *probe) {
	if s.cap == 0 {
		return
	}
	i, ok := s.idx[p.hash]
	switch {
	case ok:
		s.ents[i].key, s.ents[i].val = p.key, p.val
		return
	case len(s.ents) <= s.cap:
		if len(s.ents) == cap(s.ents) { // double, to cap entries and the sentinel at most
			grown := make([]cacheEntry, len(s.ents), min(2*len(s.ents), s.cap+1))
			copy(grown, s.ents)
			s.ents = grown
		}
		i = int32(len(s.ents))
		s.ents = s.ents[:i+1]
	default:
		i = s.evict()
		delete(s.idx, s.ents[i].hash)
	}
	s.idx[p.hash] = i
	e := &s.ents[i]
	e.key, e.val, e.hash, e.visited = p.key, p.val, p.hash, false
	s.pushFront(i)
}

// Cache is a sharded SIEVE cache of operator predictions with hit/miss
// counters, kept per shard. Shards bound lock contention under
// concurrent serving; each shard's capacity bounds memory.
type Cache struct {
	shards [cacheShards]cacheShard
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// NewCache builds a cache bounded to capacity entries in total, dealt
// evenly over the shards with the remainder going to the first ones; a
// shard dealt none serves its keys without keeping them. Returns nil (a
// disabled cache) when capacity <= 0; a nil *Cache is valid to call and
// never hits.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	c := &Cache{}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = capacity / cacheShards
		if i < capacity%cacheShards {
			s.cap++
		}
		s.idx = make(map[uint64]int32)
		s.ents = make([]cacheEntry, 1) // the queue's sentinel, linked to itself
	}
	return c
}

// probe is one slot of a batched lookup: the key and its hash going in;
// the memoized value and the outcome coming out. node and slot are the
// caller's (the estimate pipeline keeps the operator the key was
// extracted from, and parks each miss's index into its deduplicated
// prediction batch), so one slice of these is a request's whole
// per-operator state.
type probe struct {
	key  cacheKey
	hash uint64 // key.hash(), set where the key is
	val  plan.Resources
	node *plan.Node
	slot int32
	hit  bool
}

// shardPlan groups a probe batch by shard: per shard s, the probe
// indexes order[starts[s]:starts[s+1]]. GetMulti builds it and hands it
// to the PutMulti that follows.
type shardPlan struct {
	order  []int32
	starts [cacheShards + 1]int32
}

// planShards is a counting sort of the batch by shard, into order's
// storage when it has room for the batch.
func planShards(ps []probe, order []int32) shardPlan {
	sp := shardPlan{order: slices.Grow(order[:0], len(ps))[:len(ps)]}
	for i := range ps {
		sp.starts[ps[i].hash%cacheShards+1]++
	}
	for s := 0; s < cacheShards; s++ {
		sp.starts[s+1] += sp.starts[s]
	}
	next := sp.starts
	for i := range ps {
		s := ps[i].hash % cacheShards
		sp.order[next[s]] = int32(i)
		next[s]++
	}
	return sp
}

// GetMulti looks up a whole batch of keys, writing each probe's
// memoized value and outcome, and returns the hit count plus the shard
// grouping for a follow-up PutMulti (zero when the cache is disabled,
// which never hits), built in order's storage: a caller that keeps the
// grouping's order for its next batch allocates none. Keys are grouped
// by shard so each shard lock is taken at most once per batch instead
// of once per key — with two goroutines probing, a lock per key made a
// 512-key multi-get 2.2x slower and a multi-put 1.5x
// (BenchmarkCache*/parallel).
func (c *Cache) GetMulti(ps []probe, order []int32) (int, shardPlan) {
	if c == nil {
		for i := range ps {
			ps[i].hit = false
		}
		return 0, shardPlan{order: order}
	}
	sp := planShards(ps, order)
	hits := 0
	for si := 0; si < cacheShards; si++ {
		group := sp.order[sp.starts[si]:sp.starts[si+1]]
		if len(group) == 0 {
			continue
		}
		s := &c.shards[si]
		s.mu.Lock()
		for _, i := range group {
			if ps[i].hit = s.get(&ps[i]); ps[i].hit {
				hits++
			}
		}
		s.mu.Unlock()
	}
	return hits, sp
}

// PutMulti memoizes the misses of the GetMulti that returned sp — those
// a later probe can find — evicting by the shard's hand when it is full.
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
			s.put(p)
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
		out[i] = ShardCacheStats{Shard: i, Hits: s.hits, Misses: s.misses, Entries: len(s.ents) - 1}
		s.mu.Unlock()
	}
	return out
}

// Stats snapshots the counters and current occupancy.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Entries += len(s.ents) - 1
		s.mu.Unlock()
		st.Capacity += s.cap
	}
	return st
}
