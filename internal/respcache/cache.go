// Package respcache is the response cache both serving tiers put in
// front of their estimate path: the router before it forwards a
// request, a replica's stream listener before it decodes one.
package respcache

import (
	"sync"

	"repro/internal/obs"
)

// Entries is the capacity both tiers run the cache at.
const Entries = 4096

// Cache holds full response bodies keyed by the exact request body.
// Each entry carries the schema its body routes by and a stamp S naming
// the models that computed it: the router's is the version token of the
// replica that answered, a replica's the registry versions that served.
// Validity is the tier's to say and is asked per entry, never read off
// a global counter: a lookup serves an entry only while live reports
// its stamp as still the current one for its schema — an entry filled
// under a superseded model set can never serve, which is the "never
// serves a stale model's entry" guarantee — and needs nothing parsed
// out of the request: the schema is a function of the key bytes, so it
// was worked out once, when the entry was filled. Entries are not
// proactively purged on rollout: the stamp makes them dead, and LRU
// eviction reclaims them.
type Cache[S comparable] struct {
	mu      sync.Mutex
	entries map[string]*entry[S]
	head    *entry[S] // most recent
	tail    *entry[S] // eviction candidate
	cap     int

	hits   obs.Counter
	misses obs.Counter
}

type entry[S comparable] struct {
	key        string
	schema     string
	stamp      S // never the zero S
	body       []byte
	prev, next *entry[S]
}

// New returns a cache of capacity entries, or nil — the disabled cache,
// on which every method is a no-op — when capacity is not positive.
func New[S comparable](capacity int) *Cache[S] {
	if capacity <= 0 {
		return nil
	}
	return &Cache[S]{entries: make(map[string]*entry[S], capacity), cap: capacity}
}

// Get returns the response cached for the request body reqBody if live
// reports its entry's stamp current for the entry's schema. A
// present-but-stale entry counts as a miss (and ages out by LRU from
// where the lookup left it — its slot becomes valid again only via
// Put, which the miss usually leads to). reqBody is only read, and only
// during the call; live runs outside the cache's lock.
func (c *Cache[S]) Get(reqBody []byte, live func(schema string, stamp S) bool) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[string(reqBody)] // no copy: the compiler keys the probe off the bytes
	if !ok {
		c.mu.Unlock()
		c.misses.Inc()
		return nil, false
	}
	c.moveFront(e)
	schema, stamp, body := e.schema, e.stamp, e.body
	c.mu.Unlock()
	if !live(schema, stamp) {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	return body, true
}

// Put stores the response to request body key, which routes by schema,
// evicting the least recently used entry past capacity. stamp is what
// the caller saw serving schema before the answer was computed; a fill
// whose stamp live no longer reports has raced a rollout — the answer
// may be either model set's — and is dropped, as is one under the zero
// stamp, which names no models that a later lookup could check.
func (c *Cache[S]) Put(key, schema string, stamp S, body []byte, live func(schema string, stamp S) bool) {
	var zero S
	if c == nil || stamp == zero || !live(schema, stamp) {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.stamp, e.body = stamp, body
		c.moveFront(e)
		c.mu.Unlock()
		return
	}
	e := &entry[S]{key: key, schema: schema, stamp: stamp, body: body}
	c.entries[key] = e
	c.pushFront(e)
	if len(c.entries) > c.cap {
		if victim := c.tail; victim != nil {
			c.unlink(victim)
			delete(c.entries, victim.key)
		}
	}
	c.mu.Unlock()
}

// Stats returns the lookups served and refused so far.
func (c *Cache[S]) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

func (c *Cache[S]) pushFront(e *entry[S]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[S]) unlink(e *entry[S]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[S]) moveFront(e *entry[S]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
