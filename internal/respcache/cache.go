// Package respcache is the response cache both serving tiers put in
// front of their estimate path: the router before it forwards a
// request, a replica's service before either of its transports decodes
// one.
package respcache

import "sync"

// Entries is the capacity both tiers run the cache at.
const Entries = 4096

// A key may be a request as large as a transport admits and a body an
// answer as large, so the entry count alone bounds no memory. Two fixed
// byte bounds do: an entry whose key and body together exceed
// MaxEntryBytes is never filed, and Put evicts through the hand until
// the keys and bodies resident total at most maxBytes. Estimate traffic
// is a few KB an entry and meets neither.
const (
	MaxEntryBytes = 1 << 20
	maxBytes      = 64 << 20
)

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
// proactively purged on rollout: the stamp makes them dead, and the
// eviction hand reclaims them.
//
// Eviction is SIEVE (Zhang et al., NSDI '24): entries queue in the order
// they were filed, a hit marks its entry visited and moves nothing, and
// to make room a hand walks from where it last stopped toward the
// newest entry, wrapping to the oldest, clears each visited mark it
// passes and evicts the first unmarked entry. Under Zipf traffic the
// bodies asked for once leave first, where LRU would keep them over
// hot ones that are busy elsewhere.
type Cache[S comparable] struct {
	mu      sync.Mutex
	entries map[string]*entry[S]
	head    *entry[S] // newest
	tail    *entry[S] // oldest
	hand    *entry[S] // where the next eviction walk starts; nil: at the tail
	cap     int
	bytes   int // len(key)+len(body) over the entries
}

type entry[S comparable] struct {
	key     string
	schema  string
	stamp   S // never the zero S
	body    []byte
	visited bool
	// prev is the newer neighbour, next the older.
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
// present-but-stale entry is a miss (and is marked visited all the
// same: its slot becomes valid again only via Put, which the miss
// usually leads to). reqBody is only read, and only during the
// call; live runs outside the cache's lock. The cache keeps no count of
// its lookups: each caller counts its own, where it asks.
func (c *Cache[S]) Get(reqBody []byte, live func(schema string, stamp S) bool) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[string(reqBody)] // no copy: the compiler keys the probe off the bytes
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	e.visited = true
	schema, stamp, body := e.schema, e.stamp, e.body
	c.mu.Unlock()
	if !live(schema, stamp) {
		return nil, false
	}
	return body, true
}

// Put stores the response to request body key, which routes by schema,
// evicting through the hand past the entry capacity or the byte budget.
// stamp is what the caller saw serving schema before the answer was
// computed; a fill whose stamp live no longer reports has raced a
// rollout — the answer may be either model set's — and is dropped, as
// is one under the zero stamp, which names no models that a later
// lookup could check. A fill over MaxEntryBytes is dropped too,
// and takes what the key held with it: that answer is older than the
// one refused.
func (c *Cache[S]) Put(key, schema string, stamp S, body []byte, live func(schema string, stamp S) bool) {
	var zero S
	if c == nil || stamp == zero || !live(schema, stamp) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	switch {
	case len(key)+len(body) > MaxEntryBytes:
		if ok {
			c.remove(e)
		}
		return
	case ok:
		c.bytes += len(body) - len(e.body)
		e.stamp, e.body = stamp, body
	default:
		e = &entry[S]{key: key, schema: schema, stamp: stamp, body: body}
		c.entries[key] = e
		c.bytes += len(key) + len(body)
		c.pushFront(e)
	}
	for len(c.entries) > c.cap || c.bytes > maxBytes {
		c.evict(e)
	}
}

// evict removes the first unvisited entry from the hand on, clearing
// the marks it passes, and leaves the hand at the victim's newer
// neighbour. The walk passes over keep, the entry just filed: that one
// is within both bounds alone, so while they are exceeded another entry
// is resident for the walk to take.
func (c *Cache[S]) evict(keep *entry[S]) {
	e := c.hand
	for {
		if e == nil {
			e = c.tail
		}
		if e != keep {
			if !e.visited {
				break
			}
			e.visited = false
		}
		e = e.prev
	}
	c.hand = e
	c.remove(e)
}

// remove drops e from the index, the list and the byte count, moving
// the hand off it to its newer neighbour.
func (c *Cache[S]) remove(e *entry[S]) {
	if c.hand == e {
		c.hand = e.prev
	}
	c.unlink(e)
	delete(c.entries, e.key)
	c.bytes -= len(e.key) + len(e.body)
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
