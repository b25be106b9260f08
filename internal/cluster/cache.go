package cluster

import (
	"sync"

	"repro/internal/obs"
)

// responseCache is the router-side prediction cache: full response
// bodies keyed by the exact request body. Each entry carries the
// schema its body routes by and the version token (store checksum) of
// the replica that produced it. A lookup serves an entry only while
// that token is still the current one for the entry's schema — an
// entry filled under a superseded model set can never serve, which is
// the "never serves a stale model's entry" guarantee — and needs
// nothing parsed out of the request: the schema is a function of the
// key bytes, so it was worked out once, when the entry was filled.
// Entries are not proactively purged on rollout: the token mismatch
// makes them dead, and LRU eviction reclaims them.
type responseCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	head    *cacheEntry // most recent
	tail    *cacheEntry // eviction candidate
	cap     int

	hits   obs.Counter
	misses obs.Counter
}

type cacheEntry struct {
	key        string
	schema     string
	token      string // never ""
	body       []byte
	prev, next *cacheEntry
}

func newResponseCache(capacity int) *responseCache {
	if capacity <= 0 {
		return nil // nil receiver: cache disabled, all methods no-op
	}
	return &responseCache{entries: make(map[string]*cacheEntry, capacity), cap: capacity}
}

// get returns the response cached for the request body reqBody if its
// entry was filled under the token current reports for the entry's
// schema now. A present-but-stale entry counts as a miss (and is left
// for LRU to evict — the slot may become valid again only via put).
// reqBody is only read, and only during the call.
func (c *responseCache) get(reqBody []byte, current func(schema string) string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[string(reqBody)] // no copy: the compiler keys the probe off the bytes
	if !ok || e.token != current(e.schema) {
		c.mu.Unlock()
		c.misses.Inc()
		return nil, false
	}
	c.moveFront(e)
	body := e.body
	c.mu.Unlock()
	c.hits.Inc()
	return body, true
}

// put stores the response to request body key, which routes by schema,
// as produced under token, evicting the least recently used entry past
// capacity. An empty token marks a replica never polled: nothing
// produced under it can be checked later, so it is not stored.
func (c *responseCache) put(key, schema, token string, body []byte) {
	if c == nil || token == "" {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.token, e.body = token, body
		c.moveFront(e)
		c.mu.Unlock()
		return
	}
	e := &cacheEntry{key: key, schema: schema, token: token, body: body}
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

func (c *responseCache) stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

func (c *responseCache) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *responseCache) unlink(e *cacheEntry) {
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

func (c *responseCache) moveFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
