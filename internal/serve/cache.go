package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"leapme/internal/features"
)

// propDigest fingerprints a property's content: SHA-256 over the name and
// every value, each length-framed so ("ab", ["c"]) and ("a", ["bc"])
// cannot collide. Two properties with equal digests featurize identically,
// which is what makes cached and uncached scores bit-identical.
func propDigest(name string, values []string) [sha256.Size]byte {
	h := sha256.New()
	var frame [8]byte
	writePart := func(s string) {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(s)))
		h.Write(frame[:])
		h.Write([]byte(s))
	}
	writePart(name)
	for _, v := range values {
		writePart(v)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// featureCache is a bounded LRU of featurized properties. It is safe for
// concurrent use. Entries are immutable *features.Prop values, so hits
// hand out shared pointers without copying.
type featureCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[[sha256.Size]byte]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key  [sha256.Size]byte
	prop *features.Prop
}

// newFeatureCache returns an LRU holding at most capacity properties;
// capacity <= 0 disables caching (every Get misses).
func newFeatureCache(capacity int) *featureCache {
	return &featureCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[[sha256.Size]byte]*list.Element),
	}
}

// Get returns the cached features for key, marking them recently used.
func (c *featureCache) Get(key [sha256.Size]byte) (*features.Prop, bool) {
	if c.cap <= 0 {
		c.misses.Add(1)
		return nil, false
	}
	// The entry's prop is read under the lock: Put refreshes it in place
	// when two requests insert the same key.
	c.mu.Lock()
	var p *features.Prop
	el, ok := c.items[key]
	if ok {
		c.order.MoveToFront(el)
		p = el.Value.(*cacheEntry).prop
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return p, true
}

// Put inserts features under key, evicting the least recently used entry
// when full. Re-inserting an existing key refreshes its recency.
func (c *featureCache) Put(key [sha256.Size]byte, p *features.Prop) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).prop = p
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, prop: p})
}

// Len returns the current entry count.
func (c *featureCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Hits returns the cumulative hit count.
func (c *featureCache) Hits() int64 { return c.hits.Load() }

// Misses returns the cumulative miss count.
func (c *featureCache) Misses() int64 { return c.misses.Load() }
