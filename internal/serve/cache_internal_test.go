package serve

import (
	"container/list"
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// probeOf is a probe for k as batchPredictions builds it: the key and
// its hash.
func probeOf(k cacheKey) probe { return probe{key: k, hash: k.hash()} }

// intKey is a key whose features are small integers, most of what a
// plan's are.
func intKey(version uint64, i int) cacheKey {
	k := cacheKey{versions: Versions{version}, op: plan.Filter}
	k.vec[0], k.vec[1] = float64(i%64), float64(i/64)
	return k
}

// TestCacheBoundedUnderNaNKeys: a key holding a NaN equals no key, its
// own next probe included, so memoizing it would add an index entry and
// a slot that no later probe finds. Such predictions are served and not
// kept; the keys beside them in the batch are memoized as ever.
func TestCacheBoundedUnderNaNKeys(t *testing.T) {
	const capacity = 32
	c := NewCache(capacity)
	for i := 0; i < 10000; i++ {
		nan := cacheKey{op: plan.Filter}
		nan.vec[0], nan.vec[1] = float64(i), math.NaN()
		plain := cacheKey{op: plan.Filter}
		plain.vec[0] = float64(i)
		ps := []probe{probeOf(nan), probeOf(plain)}
		if hits, _ := c.GetMulti(ps[:1], nil); hits != 0 {
			t.Fatalf("put %d: a NaN-bearing key hit", i)
		}
		_, sp := c.GetMulti(ps, nil)
		ps[0].val.CPU, ps[1].val.CPU = 1, 2
		c.PutMulti(ps, sp)
		if hits, _ := c.GetMulti(ps, nil); hits != 1 || !ps[1].hit || ps[1].val.CPU != 2 {
			t.Fatalf("put %d: %d hits on the pair just put, want the plain key's", i, hits)
		}
	}
	entries := 0
	for i := range c.shards {
		s := &c.shards[i]
		if len(s.idx) != len(s.ents)-1 {
			t.Errorf("shard %d: %d index entries beside %d slab entries", i, len(s.idx), len(s.ents)-1)
		}
		entries += len(s.idx)
	}
	if entries > capacity {
		t.Fatalf("%d index entries in a %d-entry cache after 10000 NaN-keyed puts", entries, capacity)
	}
}

// oracleCache is SIEVE as written out over the standard library: per
// shard a map[cacheKey] into a container/list, the runtime hashing the
// key. The slab must be indistinguishable from it call for call.
type oracleCache struct {
	shards       [cacheShards]oracleShard
	hits, misses uint64
}

type oracleShard struct {
	m            map[cacheKey]*list.Element
	queue        list.List     // front = newest
	hand         *list.Element // nil: the back
	cap          int
	hits, misses uint64
}

type oracleEntry struct {
	key     cacheKey
	val     plan.Resources
	visited bool
}

func newOracle(capacity int) *oracleCache {
	o := &oracleCache{}
	for i := range o.shards {
		o.shards[i].m = make(map[cacheKey]*list.Element)
		o.shards[i].cap = capacity / cacheShards
		if i < capacity%cacheShards {
			o.shards[i].cap++
		}
	}
	return o
}

func (o *oracleCache) get(k cacheKey) (plan.Resources, bool) {
	s := &o.shards[k.hash()%cacheShards]
	el, ok := s.m[k]
	if !ok {
		s.misses++
		o.misses++
		return plan.Resources{}, false
	}
	s.hits++
	o.hits++
	e := el.Value.(*oracleEntry)
	e.visited = true
	return e.val, true
}

// put returns the key it evicted, if it evicted one. A resident key
// takes the new value where it stands, its mark kept; a new one is
// filed newest and unmarked, after the hand has made room: from where
// it stopped (the back, at first) toward the front, wrapping round,
// unmarking as it goes, it evicts the first unmarked entry and stops at
// that entry's newer neighbour.
func (o *oracleCache) put(k cacheKey, v plan.Resources) (victim cacheKey, evicted bool) {
	s := &o.shards[k.hash()%cacheShards]
	if s.cap == 0 {
		return victim, false
	}
	if el, ok := s.m[k]; ok {
		el.Value.(*oracleEntry).val = v
		return victim, false
	}
	if s.queue.Len() == s.cap {
		el := s.hand
		for {
			if el == nil {
				el = s.queue.Back()
			}
			e := el.Value.(*oracleEntry)
			if !e.visited {
				break
			}
			e.visited = false
			el = el.Prev()
		}
		s.hand = el.Prev()
		victim, evicted = s.queue.Remove(el).(*oracleEntry).key, true
		delete(s.m, victim)
	}
	s.m[k] = s.queue.PushFront(&oracleEntry{key: k, val: v})
	return victim, evicted
}

// TestCacheMatchesListAndMapOracle drives the slab cache and the oracle
// with one seeded sequence of multi-gets and multi-puts — duplicate keys
// inside a batch, keys differing only in their version vector, a NaN
// key now and then, capacities that do and do not divide over the
// shards — and requires the same outcome and value for every probe, the
// same counters after every batch, every key the oracle evicts to be
// gone from the slab, and every shard's whole queue, newest first, to
// match the oracle's entry for entry, visited bits and hand included.
func TestCacheMatchesListAndMapOracle(t *testing.T) {
	ops := 0
	for _, capacity := range []int{32, 100, 1000, 4096} {
		c, o := NewCache(capacity), newOracle(capacity)
		rng := xrand.New(uint64(capacity))
		universe := 3 * capacity
		for batch := 0; batch < 600; batch++ {
			ps := make([]probe, 1+rng.Intn(96))
			for i := range ps {
				k := intKey(1+uint64(rng.Intn(2)), rng.Intn(universe))
				switch rng.Intn(16) {
				case 0:
					if i > 0 {
						k = ps[rng.Intn(i)].key
					}
				case 1:
					k.vec[5] = math.NaN()
				}
				ps[i] = probeOf(k)
			}
			ops += len(ps)

			hits, sp := c.GetMulti(ps, nil)
			wantHits := 0
			for i := range ps {
				val, hit := o.get(ps[i].key)
				if hit {
					wantHits++
				}
				if ps[i].hit != hit || (hit && ps[i].val != val) {
					t.Fatalf("capacity %d batch %d probe %d: slab (hit %v, %v), oracle (hit %v, %v)",
						capacity, batch, i, ps[i].hit, ps[i].val, hit, val)
				}
			}
			if hits != wantHits {
				t.Fatalf("capacity %d batch %d: GetMulti reports %d hits, oracle %d", capacity, batch, hits, wantHits)
			}

			if rng.Intn(8) > 0 { // an /observe probes and puts nothing back
				var victims []cacheKey
				for i := range ps {
					if ps[i].hit {
						continue
					}
					ps[i].val = plan.Resources{CPU: float64(ops + i), IO: float64(batch)}
					if !ps[i].key.memoizable() {
						continue
					}
					if victim, evicted := o.put(ps[i].key, ps[i].val); evicted {
						victims = append(victims, victim)
					}
				}
				c.PutMulti(ps, sp)
				for _, k := range victims {
					// A victim put again later in the batch is resident
					// again in both; the oracle says which.
					s := &c.shards[k.hash()%cacheShards]
					_, inOracle := o.shards[k.hash()%cacheShards].m[k]
					i, ok := s.idx[k.hash()]
					if inSlab := ok && s.ents[i].key == k; inSlab != inOracle {
						t.Fatalf("capacity %d batch %d: the oracle evicted %v (resident after the batch: %v), the slab holds it: %v",
							capacity, batch, k.vec[:2], inOracle, inSlab)
					}
				}
			}

			st, shards := c.Stats(), c.ShardStats()
			want := CacheStats{Hits: o.hits, Misses: o.misses, Capacity: capacity}
			for i := range o.shards {
				os := &o.shards[i]
				want.Entries += os.queue.Len()
				if got := (ShardCacheStats{Shard: i, Hits: os.hits, Misses: os.misses, Entries: os.queue.Len()}); shards[i] != got {
					t.Fatalf("capacity %d batch %d: shard stats %+v, oracle %+v", capacity, batch, shards[i], got)
				}
				// The queue, newest first, with its marks and the hand.
				s := &c.shards[i]
				at := s.ents[0].next
				for el := os.queue.Front(); el != nil; el = el.Next() {
					e := el.Value.(*oracleEntry)
					if at == 0 || s.ents[at].key != e.key || s.ents[at].visited != e.visited {
						t.Fatalf("capacity %d batch %d shard %d: queue departs from the oracle's", capacity, batch, i)
					}
					if (el == os.hand) != (at == s.hand) {
						t.Fatalf("capacity %d batch %d shard %d: hand at slot %d, the oracle's elsewhere", capacity, batch, i, s.hand)
					}
					at = s.ents[at].next
				}
				if at != 0 {
					t.Fatalf("capacity %d batch %d shard %d: queue longer than the oracle's", capacity, batch, i)
				}
				if (os.hand == nil) != (s.hand == 0) {
					t.Fatalf("capacity %d batch %d shard %d: hand at slot %d, the oracle's at the back: %v", capacity, batch, i, s.hand, os.hand == nil)
				}
			}
			if st != want {
				t.Fatalf("capacity %d batch %d: stats %+v, oracle %+v", capacity, batch, st, want)
			}
		}
	}
	if ops < 100000 {
		t.Fatalf("only %d probes driven, want >= 100000", ops)
	}
}

// TestCacheHitRatioOnTPCH pins what SIEVE buys on plan traffic: passes
// of 64-plan batches over generated TPC-H plans, through a cache a
// fraction of their distinct operator keys. Hot operators recur all
// through a pass, among many keys used once; LRU keeps the once-used
// and evicts the hot ones: it hit 0.296 here, where SIEVE hits 0.368.
func TestCacheHitRatioOnTPCH(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.N = 2048
	cfg.SFs = []float64{1, 2, 4, 6, 8}
	eng := engine.New(nil)
	var batches [][]probe
	qs := workload.GenTPCH(cfg)
	for i := 0; i < len(qs); i += 64 {
		var ps []probe
		for _, q := range qs[i : i+64] {
			eng.Run(q.Plan)
			ps = appendProbes(ps, q.Plan.Root, nil, &Versions{1, 1}, features.Exact)
		}
		batches = append(batches, ps)
	}
	c := NewCache(1024)
	for pass := 0; pass < 4; pass++ {
		for _, ps := range batches {
			_, sp := c.GetMulti(ps, nil)
			c.PutMulti(ps, sp)
		}
	}
	st := c.Stats()
	ratio := float64(st.Hits) / float64(st.Hits+st.Misses)
	t.Logf("hit ratio %.4f over %d probes", ratio, st.Hits+st.Misses)
	if ratio < 0.36 {
		t.Fatalf("hit ratio %.4f, want >= 0.36", ratio)
	}
}

// TestCacheShardHashCollision presents two keys under one hash value:
// neither may ever be handed the other's value, and the shard keeps one
// entry for the hash — the later arrival's.
func TestCacheShardHashCollision(t *testing.T) {
	c := NewCache(4 * cacheShards)
	s := &c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	a, b := probe{key: intKey(1, 1), hash: 7}, probe{key: intKey(1, 2), hash: 7}
	a.val.CPU, b.val.CPU = 1, 2
	get := func(p probe) (float64, bool) {
		p.val = plan.Resources{}
		hit := s.get(&p)
		return p.val.CPU, hit
	}
	for round := 0; round < 50; round++ {
		s.put(&a)
		if v, hit := get(a); !hit || v != 1 {
			t.Fatalf("round %d: a just put reads (%v, %v)", round, v, hit)
		}
		if v, hit := get(b); hit {
			t.Fatalf("round %d: b hit under a's hash and read %v", round, v)
		}
		s.put(&b)
		if v, hit := get(b); !hit || v != 2 {
			t.Fatalf("round %d: b just put reads (%v, %v)", round, v, hit)
		}
		if v, hit := get(a); hit {
			t.Fatalf("round %d: a hit after b took its hash and read %v", round, v)
		}
		// Other hashes come and go around the shared one.
		other := probe{key: intKey(1, 100+round), hash: uint64(100 + round)}
		s.put(&other)
		if len(s.idx) != len(s.ents)-1 || len(s.idx) > s.cap {
			t.Fatalf("round %d: %d index entries, %d slab entries, capacity %d", round, len(s.idx), len(s.ents)-1, s.cap)
		}
		n := 0
		for i := s.ents[0].next; i != 0; i = s.ents[i].next {
			if s.ents[i].hash == 7 {
				n++
			}
		}
		if _, ok := s.idx[7]; ok != (n == 1) || n > 1 {
			t.Fatalf("round %d: %d ring entries under the shared hash, indexed: %v", round, n, ok)
		}
	}
}

// TestCacheConcurrentChurn: goroutines getting and putting overlapping
// key ranges through a cache too small for them — every shard evicting
// under contention — read only values that belong to their keys, and
// leave every shard's index, slab and ring in step.
func TestCacheConcurrentChurn(t *testing.T) {
	const capacity = 256
	c := NewCache(capacity)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(g))
			for batch := 0; batch < 400; batch++ {
				ps := make([]probe, 64)
				for i := range ps {
					ps[i] = probeOf(intKey(1, rng.Intn(4*capacity)))
				}
				_, sp := c.GetMulti(ps, nil)
				for i := range ps {
					want := ps[i].key.vec[0] + 64*ps[i].key.vec[1]
					if ps[i].hit && ps[i].val.CPU != want {
						t.Errorf("key %v read %v", want, ps[i].val.CPU)
						return
					}
					ps[i].val.CPU = want
				}
				c.PutMulti(ps, sp)
			}
		}(g)
	}
	wg.Wait()
	for i := range c.shards {
		s := &c.shards[i]
		ring := 0
		for at := s.ents[0].next; at != 0 && ring <= len(s.ents); at = s.ents[at].next {
			if s.idx[s.ents[at].hash] != at || s.ents[s.ents[at].next].prev != at {
				t.Fatalf("shard %d slot %d: index or back link out of step", i, at)
			}
			ring++
		}
		if ring != len(s.ents)-1 || ring != len(s.idx) || ring > s.cap {
			t.Fatalf("shard %d: %d in the ring, %d in the slab, %d indexed, capacity %d", i, ring, len(s.ents)-1, len(s.idx), s.cap)
		}
	}
}

// TestCacheCapacityIsWhatWasAsked: the shards' capacities sum to the
// capacity given, whether or not it divides over them, and the cache
// fills to exactly that.
func TestCacheCapacityIsWhatWasAsked(t *testing.T) {
	for _, capacity := range []int{1, 100, 4096} {
		c := NewCache(capacity)
		if got := c.Stats().Capacity; got != capacity {
			t.Errorf("NewCache(%d) reports capacity %d", capacity, got)
		}
		for i := 0; i < 64*capacity+2048; i += 64 {
			ps := make([]probe, 64)
			for j := range ps {
				ps[j] = probeOf(intKey(1, i+j))
			}
			_, sp := c.GetMulti(ps, nil)
			c.PutMulti(ps, sp)
		}
		if got := c.Stats().Entries; got != capacity {
			t.Errorf("NewCache(%d) holds %d entries after %d distinct puts", capacity, got, 64*capacity+2048)
		}
	}
}

var (
	internalEstOnce  sync.Once
	internalEst      *core.Estimator
	internalEstPlans []*plan.Plan
)

// trainedEstimator trains one small CPU estimator for the tests of this
// package that need a service to answer, and returns it with 64 plans.
func trainedEstimator(tb testing.TB) (*core.Estimator, []*plan.Plan) {
	tb.Helper()
	internalEstOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.N = 64
		cfg.Seed = 42
		eng := engine.New(nil)
		for _, q := range workload.GenTPCH(cfg) {
			eng.Run(q.Plan)
			internalEstPlans = append(internalEstPlans, q.Plan)
		}
		ccfg := core.DefaultConfig()
		ccfg.Mart.Iterations = 40
		var err error
		if internalEst, err = core.Train(internalEstPlans, plan.CPUTime, nil, ccfg); err != nil {
			panic(err)
		}
	})
	return internalEst, internalEstPlans
}

// TestCacheSlabGrowsOnDemand: a default-sized cache holds next to
// nothing until it is used — tests, resbench and the benchmark's probes
// build many services — and a full one takes no allocation to insert
// into.
func TestCacheSlabGrowsOnDemand(t *testing.T) {
	est, plans := trainedEstimator(t)
	svc := New(Options{})
	defer svc.Close()
	svc.Registry().Publish("tpch", est)
	if _, err := svc.Estimate(context.Background(), Request{Schema: "tpch", Plan: plans[0]}); err != nil {
		t.Fatal(err)
	}
	slab := 0
	for i := range svc.cache.shards {
		slab += cap(svc.cache.shards[i].ents) * int(unsafe.Sizeof(cacheEntry{}))
	}
	if st := svc.cache.Stats(); st.Entries == 0 || slab >= 64<<10 {
		t.Fatalf("a %d-entry cache holding %d entries has %d bytes of slab, want < 64 KiB", st.Capacity, st.Entries, slab)
	}

	const capacity = 1024
	c := NewCache(capacity)
	batches := make([][]probe, 11*capacity/64)
	groups := make([]shardPlan, len(batches))
	for n := range batches {
		batches[n] = make([]probe, 64)
		for j := range batches[n] {
			batches[n][j] = probeOf(intKey(1, n*64+j))
		}
		groups[n] = planShards(batches[n], nil)
	}
	n := 0
	put := func() {
		c.PutMulti(batches[n%len(batches)], groups[n%len(batches)])
		n++
	}
	for n < len(batches) { // fill, then churn ten times the capacity
		put()
	}
	if got := c.Stats().Entries; got != capacity {
		t.Fatalf("%d entries after %d distinct puts into a %d-entry cache", got, n*64, capacity)
	}
	if allocs := testing.AllocsPerRun(len(batches), put); allocs != 0 {
		t.Errorf("%v allocations per 64-key PutMulti into a full cache, want 0", allocs)
	}
}

// shardSpread hashes the keys to their shards and returns the fullest
// shard's occupancy over the mean, and how many keys share their hash
// with an earlier one.
func shardSpread(keys []cacheKey) (spread float64, collisions int) {
	var counts [cacheShards]int
	seen := make(map[uint64]struct{}, len(keys))
	max := 0
	for i := range keys {
		h := keys[i].hash()
		if _, dup := seen[h]; dup {
			collisions++
		}
		seen[h] = struct{}{}
		if counts[h%cacheShards]++; counts[h%cacheShards] > max {
			max = counts[h%cacheShards]
		}
	}
	return float64(max) * cacheShards / float64(len(keys)), collisions
}

// TestCacheKeysSpreadOverShards: word-wise FNV carries a difference
// between two keys upward only, and floats that are small integers —
// most of what a plan's features are — differ high in the word. The
// shard index is the hash's low bits (one shard held a whole synthetic
// set before the hash was finished with Mix64), and the whole hash is
// the shard's index, one entry per value (more than half of the
// synthetic set shared its hash with another key before each step
// folded its high half down, and one pair among the 33,281 distinct
// operator keys of an 8192-query workload). Pinned on distinct
// small-integer keys and on the distinct operator keys of a generated
// TPC-H workload.
func TestCacheKeysSpreadOverShards(t *testing.T) {
	ints := make([]cacheKey, 1<<16)
	for i := range ints {
		ints[i] = cacheKey{op: plan.Filter}
		for j := 0; j < 4; j++ {
			ints[i].vec[7*j] = float64(i >> (4 * j) & 15)
		}
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
		spread, collisions := shardSpread(c.keys)
		if spread > 1.5 {
			t.Errorf("%s: fullest shard holds %.2fx the mean of %d keys over %d shards, want <= 1.5x",
				c.name, spread, len(c.keys), cacheShards)
		}
		if collisions != 0 {
			t.Errorf("%s: %d of %d distinct keys share a 64-bit hash with another", c.name, collisions, len(c.keys))
		}
		t.Logf("%s: %d keys, fullest shard %.2fx the mean", c.name, len(c.keys), spread)
	}
}

// benchBatch is the probe count of a 64-plan batch of eight-operator
// plans, what one batch_cold request brings.
const benchBatch = 512

// benchProbes builds n batches of distinct keys.
func benchProbes(n int) [][]probe {
	batches := make([][]probe, n)
	for b := range batches {
		batches[b] = make([]probe, benchBatch)
		for j := range batches[b] {
			batches[b][j] = probeOf(intKey(1, b*benchBatch+j))
		}
	}
	return batches
}

// BenchmarkCacheGetMultiHit: one multi-get of 512 resident keys per
// iteration, on one goroutine and on GOMAXPROCS of them.
func BenchmarkCacheGetMultiHit(b *testing.B) {
	c := NewCache(4096)
	batches := benchProbes(4) // half the capacity: no shard overflows
	for _, ps := range batches {
		_, sp := c.GetMulti(ps, nil)
		c.PutMulti(ps, sp)
	}
	get := func(b *testing.B, ps []probe) {
		if hits, _ := c.GetMulti(ps, nil); hits != len(ps) {
			b.Fatalf("%d hits of %d", hits, len(ps))
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			get(b, batches[i%len(batches)])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		// GetMulti writes into its probes: a set of them per goroutine.
		sets := make([][][]probe, runtime.GOMAXPROCS(0))
		for i := range sets {
			sets[i] = benchProbes(len(batches))
		}
		var next atomic.Int32
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			own := sets[next.Add(1)-1]
			for i := 0; pb.Next(); i++ {
				get(b, own[i%len(own)])
			}
		})
	})
}

// BenchmarkCachePutMultiEvict: one multi-put of 512 keys into a full
// cache per iteration, every one evicting; the key set is four times the
// capacity, so a key is long gone when its turn comes again.
func BenchmarkCachePutMultiEvict(b *testing.B) {
	c := NewCache(4096)
	batches := benchProbes(32)
	plans := make([]shardPlan, len(batches))
	for i, ps := range batches {
		plans[i] = planShards(ps, nil)
		c.PutMulti(ps, plans[i])
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.PutMulti(batches[i%len(batches)], plans[i%len(batches)])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		var start atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			for i := int(start.Add(16)); pb.Next(); i++ {
				c.PutMulti(batches[i%len(batches)], plans[i%len(batches)])
			}
		})
	})
}

// BenchmarkBatchPredictionsMiss: batchPredictions over 64 plans at a
// model version no earlier iteration used, so every operator misses —
// against a full 4096-entry cache (every put evicts) and with the cache
// off, where only the batch's own deduplication runs.
func BenchmarkBatchPredictionsMiss(b *testing.B) {
	est, plans := trainedEstimator(b)
	for _, bc := range []struct {
		name    string
		entries int
	}{{"cache=4096", 4096}, {"cache=off", -1}} {
		b.Run(bc.name, func(b *testing.B) {
			svc := New(Options{CacheEntries: bc.entries})
			defer svc.Close()
			svc.Registry().Publish("tpch", est)
			found, err := svc.lookupModels("tpch", []plan.ResourceKind{plan.CPUTime})
			if err != nil {
				b.Fatal(err)
			}
			ms := *found
			run := func() {
				ms.versions[plan.CPUTime]++
				sc := getScratch()
				svc.batchPredictions(&ms, plans, sc, false)
				for i := range sc.ps {
					if sc.ps[i].hit {
						b.Fatal("a key under a fresh version hit")
					}
				}
				putScratch(sc)
			}
			for i := 0; i < 16; i++ { // fill the cache
				run()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
