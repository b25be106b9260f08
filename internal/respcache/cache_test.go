package respcache

import (
	"fmt"
	"testing"
)

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
// the resident keys and bodies within maxBytes by evicting in LRU order,
// long before the entry count is met, and a fill over MaxEntryBytes is
// refused and leaves no older answer under its key.
func TestByteBudget(t *testing.T) {
	c := New[string](Entries)
	live := func(string, string) bool { return true }
	key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
	big := make([]byte, MaxEntryBytes-len(key(0)))

	const fills = 2 * maxBytes / MaxEntryBytes
	for i := 0; i < fills; i++ {
		c.Put(key(i), "s", "v1", big, live)
		if c.bytes > maxBytes {
			t.Fatalf("after %d fills %d bytes are resident, over the %d budget", i+1, c.bytes, maxBytes)
		}
		if i == 1 {
			c.Get([]byte(key(0)), live) // 0 is now more recent than 1
		}
	}
	resident := 0
	for k, e := range c.entries {
		resident += len(k) + len(e.body)
	}
	if resident != c.bytes || len(c.entries) != maxBytes/MaxEntryBytes {
		t.Fatalf("%d entries holding %d bytes, accounted as %d", len(c.entries), resident, c.bytes)
	}
	// Evicted oldest first: the newest maxBytes' worth stays, and 0, which
	// was touched after 1, went one fill later than 1 did.
	for i := fills - maxBytes/MaxEntryBytes; i < fills; i++ {
		if _, ok := c.Get([]byte(key(i)), live); !ok {
			t.Fatalf("entry %d of %d evicted before older ones", i, fills)
		}
	}
	d := New[string](Entries)
	for i := 0; i < maxBytes/MaxEntryBytes+1; i++ {
		d.Put(key(i), "s", "v1", big, live)
		if i == 1 {
			d.Get([]byte(key(0)), live)
		}
	}
	if _, ok := d.Get([]byte(key(1)), live); ok {
		t.Fatal("the least recently used entry outlived the budget")
	}
	if _, ok := d.Get([]byte(key(0)), live); !ok {
		t.Fatal("an entry used more recently than the victim was evicted")
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
