package respcache

import "testing"

// TestResponseCacheTokenAndLRU pins the cache's two eviction rules:
// stamp mismatch is a miss (stale model entries never serve), and
// capacity evicts least-recently-used. Entries are keyed by request
// body alone and carry the schema whose current stamp decides whether
// they are live.
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
	c.Get([]byte("a"), live)                   // a is now most recent
	c.Put("c", "s2", "v1", []byte("rc"), live) // evicts b
	if _, ok := c.Get([]byte("b"), live); ok {
		t.Fatal("LRU victim still cached")
	}
	if _, ok := c.Get([]byte("a"), live); !ok {
		t.Fatal("recently used entry evicted")
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 2 {
		t.Fatalf("stats = %d hits %d misses, want 3/2", hits, misses)
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
