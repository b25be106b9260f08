package respcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// TestResponseCacheTokenAndLRU pins the cache's two eviction rules:
// stamp mismatch is a miss (stale model entries never serve), and
// capacity evicts by SIEVE, so an entry read since it was filed
// outlives an older one that was not. Entries are keyed by request body
// alone and carry the schema whose current stamp decides whether they
// are live. (The name predates the move from LRU.)
func TestResponseCacheTokenAndLRU(t *testing.T) {
	c := New[string](2)
	tokens := map[string]string{"s1": "v1", "s2": "v1"}
	live := func(schema, tok string) bool { return tokens[schema] == tok }

	c.Put("a", "s1", "v1", []byte("ra"), live)
	if got, ok := c.Get([]byte("a"), live); !ok || string(got) != "ra" {
		t.Fatalf("get(a) under v1 = %q,%v", got, ok)
	}
	tokens["s1"] = "v2" // a's schema rolled; s2 did not
	if _, ok := c.Get([]byte("a"), live); ok {
		t.Fatal("stale-token entry served")
	}
	tokens["s1"] = "v1"
	c.Put("b", "s2", "v1", []byte("rb"), live)
	c.Get([]byte("a"), live)                   // a is now visited
	c.Put("c", "s2", "v1", []byte("rc"), live) // evicts b, the oldest unvisited
	if _, ok := c.Get([]byte("b"), live); ok {
		t.Fatal("eviction victim still cached")
	}
	if _, ok := c.Get([]byte("a"), live); !ok {
		t.Fatal("visited entry evicted")
	}
	// The zero stamp names no models — a replica never polled reports
	// the token "": nothing is stored under it, and an entry whose
	// schema reports it is dead.
	always := func(string, string) bool { return true }
	c.Put("d", "s3", "", []byte("rd"), always)
	if _, ok := c.Get([]byte("d"), always); ok {
		t.Fatal("entry stored under the empty token served")
	}
	delete(tokens, "s1")
	if _, ok := c.Get([]byte("a"), live); ok {
		t.Fatal("entry served while its schema has no token")
	}

	var disabled *Cache[string]
	disabled.Put("x", "s1", "v1", []byte("r"), always)
	if _, ok := disabled.Get([]byte("x"), always); ok {
		t.Fatal("disabled cache served an entry")
	}
}

// TestFillDroppedWhenStampMoved pins the one fill rule: an answer is
// filed under the stamp its caller saw before computing it, and only if
// that stamp is still the live one when the answer arrives — otherwise
// nobody can say which model set computed it. A refused fill leaves
// what the key held alone.
func TestFillDroppedWhenStampMoved(t *testing.T) {
	c := New[string](4)
	current := "v1"
	live := func(_, tok string) bool { return tok == current }

	before := current
	current = "v2" // the rollout lands while the answer is computed
	c.Put("a", "s", before, []byte("computed by v1 or v2"), live)
	if _, ok := c.Get([]byte("a"), live); ok {
		t.Fatal("an answer that raced a rollout was filed under the new stamp")
	}
	current = "v1"
	if _, ok := c.Get([]byte("a"), live); ok {
		t.Fatal("an answer that raced a rollout was filed under the old stamp")
	}

	c.Put("a", "s", "v1", []byte("r1"), live)
	current = "v2"
	c.Put("a", "s", "v1", []byte("late"), live)
	current = "v1"
	if got, ok := c.Get([]byte("a"), live); !ok || string(got) != "r1" {
		t.Fatalf("a refused fill changed the entry: %q,%v", got, ok)
	}
}

// TestByteBudget pins the two byte bounds: fills near MaxEntryBytes keep
// the resident keys and bodies within maxBytes by evicting through the
// hand, long before the entry count is met, and a fill over
// MaxEntryBytes is refused and leaves no older answer under its key.
func TestByteBudget(t *testing.T) {
	c := New[string](Entries)
	live := func(string, string) bool { return true }
	key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
	big := make([]byte, MaxEntryBytes-len(key(0)))

	const fills = 2 * maxBytes / MaxEntryBytes
	const fit = maxBytes / MaxEntryBytes
	for i := 0; i < fills; i++ {
		c.Put(key(i), "s", "v1", big, live)
		if c.bytes > maxBytes {
			t.Fatalf("after %d fills %d bytes are resident, over the %d budget", i+1, c.bytes, maxBytes)
		}
		if i == 1 {
			c.Get([]byte(key(0)), live) // 0 is read since it was filed; 1 is not
		}
	}
	resident := 0
	for k, e := range c.entries {
		resident += len(k) + len(e.body)
	}
	if resident != c.bytes || len(c.entries) != fit {
		t.Fatalf("%d entries holding %d bytes, accounted as %d", len(c.entries), resident, c.bytes)
	}
	// Evicted in the order filed, but for 0: read since it was filed,
	// it kept its place and lost only its mark when the hand first
	// passed it, and the hand, moving toward the newest, has not come
	// back round to it. Each fill past the budget took the oldest entry
	// after 0, so 1..fills-fit are gone and 0 stays beside the newest
	// fit-1.
	for i := 0; i < fills; i++ {
		want := i == 0 || i > fills-fit
		if _, ok := c.Get([]byte(key(i)), live); ok != want {
			t.Fatalf("entry %d of %d resident: %v, want %v", i, fills, ok, want)
		}
	}
	d := New[string](Entries)
	for i := 0; i < fit+1; i++ {
		d.Put(key(i), "s", "v1", big, live)
		if i == 1 {
			d.Get([]byte(key(0)), live)
		}
	}
	if _, ok := d.Get([]byte(key(1)), live); ok {
		t.Fatal("the oldest unread entry outlived the budget")
	}
	if _, ok := d.Get([]byte(key(0)), live); !ok {
		t.Fatal("an entry read since it was filed was evicted on the hand's first pass")
	}

	// Over the entry cap: refused, and the smaller answer the key held
	// under an older stamp goes with it rather than waiting to serve.
	c.Put("k", "s", "v1", []byte("old"), live)
	before := c.bytes
	c.Put("k", "s", "v2", make([]byte, MaxEntryBytes), live)
	if _, ok := c.Get([]byte("k"), live); ok {
		t.Fatal("a refused over-cap fill left the key's previous answer serving")
	}
	if want := before - len("k") - len("old"); c.bytes != want {
		t.Fatalf("%d bytes accounted after the refusal, want %d", c.bytes, want)
	}
	// Replacing a body in place moves the count by the difference.
	c.Put("k", "s", "v2", []byte("four"), live)
	c.Put("k", "s", "v2", []byte("sixsix"), live)
	if want := before - len("old") + len("sixsix"); c.bytes != want {
		t.Fatalf("%d bytes accounted after a replacement, want %d", c.bytes, want)
	}
}

// TestZipfHitRatio pins what SIEVE buys on the router's traffic: bodies
// drawn Zipf(1.1) over twice as many keys as the cache holds, each miss
// filled. LRU keeps the bodies asked for once and evicts hot ones: it
// hit 0.916 here, where SIEVE hits 0.931.
func TestZipfHitRatio(t *testing.T) {
	const (
		keys     = 2048
		capacity = 1024
		draws    = 400_000
	)
	c := New[string](capacity)
	live := func(string, string) bool { return true }
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("body-%04d", i)
	}
	zipf := xrand.NewZipf(keys, 1.1)
	rng := xrand.New(1)
	hits := 0
	for i := 0; i < draws; i++ {
		k := names[zipf.Rank(rng)-1]
		if _, ok := c.Get([]byte(k), live); ok {
			hits++
			continue
		}
		c.Put(k, "s", "v1", []byte(k), live)
	}
	ratio := float64(hits) / draws
	t.Logf("hit ratio %.4f", ratio)
	if ratio < 0.93 {
		t.Fatalf("hit ratio %.4f over %d Zipf(1.1) draws of %d keys through %d entries, want >= 0.93", ratio, draws, keys, capacity)
	}
}

// TestConcurrentGetPut: goroutines reading and filling overlapping keys
// through a cache too small for them — every fill past the first few
// evicting — read only their keys' bodies and leave the index, the
// queue, the byte count and the hand in step. CI runs it under -race
// -count=20.
func TestConcurrentGetPut(t *testing.T) {
	const capacity = 16
	c := New[string](capacity)
	live := func(string, string) bool { return true }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(g))
			for i := 0; i < 5000; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(4*capacity))
				if body, ok := c.Get([]byte(k), live); ok {
					if string(body) != k {
						t.Errorf("key %s read %q", k, body)
						return
					}
					continue
				}
				c.Put(k, "s", "v1", []byte(k), live)
			}
		}(g)
	}
	wg.Wait()

	n, bytes, handFound := 0, 0, c.hand == nil
	var newer *entry[string]
	for e := c.head; e != nil; e = e.next {
		if c.entries[e.key] != e || e.prev != newer {
			t.Fatalf("entry %s: index or back link out of step", e.key)
		}
		if e == c.hand {
			handFound = true
		}
		n++
		bytes += len(e.key) + len(e.body)
		newer = e
	}
	if c.tail != newer {
		t.Fatal("the tail is not the last entry of the queue")
	}
	if n != len(c.entries) || n > capacity || bytes != c.bytes {
		t.Fatalf("%d queued, %d indexed, capacity %d; %d bytes queued, %d accounted", n, len(c.entries), capacity, bytes, c.bytes)
	}
	if !handFound {
		t.Fatal("the hand points outside the queue")
	}
}
