package serve

import (
	"bytes"
	"sync"
)

// cache is the content-addressed solution store: canonical tree hash
// (plus a "#k=N" suffix for enumerations) → finished response. Only
// definitive documents (OPTIMAL, INFEASIBLE — see Definitive) belong
// here; the server enforces that at the call site, because a cached
// FEASIBLE or NO_ANSWER would freeze a budget artefact into a permanent
// answer.
//
// An entry holds the response document already encoded, with
// "cached":true, so a hit writes stored bytes instead of encoding the
// solution again; the encoded body is the only copy of the solution
// the entry keeps.
//
// Eviction is LRU over a bounded entry count: the documents are small
// (a cut set plus weights), so a simple recency list is enough.
type cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	// head is most recently used, tail least; both nil when empty.
	head, tail *cacheEntry
}

type cacheEntry struct {
	key        string
	hit        cachedDoc
	prev, next *cacheEntry
}

// cachedDoc is a stored response: its taxonomy status, which picks the
// HTTP code, and the encoded Document. body is shared by every hit and
// must not be modified.
type cachedDoc struct {
	status string
	body   []byte
}

func newCache(max int) *cache {
	if max < 1 {
		max = 1
	}
	return &cache{max: max, entries: make(map[string]*cacheEntry)}
}

// get returns the stored response under key, and whether the key was
// present.
func (c *cache) get(key string) (cachedDoc, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return cachedDoc{}, false
	}
	c.moveToFront(e)
	return e.hit, true
}

// put stores a response under key, evicting the least recently used
// entry when full. body is the Document as encoded for the request that
// produced it ("cached":false); the stored copy says "cached":true, since
// the flag describes every later response that carries it.
func (c *cache) put(key, status string, body []byte) {
	hit := cachedDoc{status: status, body: markCached(body)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.hit = hit
		c.moveToFront(e)
		return
	}
	e := &cacheEntry{key: key, hit: hit}
	c.entries[key] = e
	c.pushFront(e)
	if len(c.entries) > c.max {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
	}
}

// markCached returns an encoded Document with its cached flag set, in a
// copy when the flag has to change. The flag is the first "cached" key:
// the fields before it, hash and status, are a hex digest and a status
// word.
func markCached(body []byte) []byte {
	const fresh, hit = `"cached":false`, `"cached":true`
	i := bytes.Index(body, []byte(fresh))
	if i < 0 {
		return body // already flagged
	}
	out := make([]byte, 0, len(body)-len(fresh)+len(hit))
	out = append(out, body[:i]...)
	out = append(out, hit...)
	return append(out, body[i+len(fresh):]...)
}

// len returns the number of stored documents.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *cache) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *cache) unlink(e *cacheEntry) {
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

func (c *cache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
