package array

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultChunkCacheBytes is the byte budget of the process-wide shared
// chunk cache: large enough to hold the working set of the experiment
// workloads many times over, small enough to bound a server's memory
// under scans of larger-than-memory arrays.
const DefaultChunkCacheBytes = 64 << 20

// cacheKey identifies one chunk payload globally: the storage back-end
// it came from, the array within that back-end, and the chunk number.
// Back-ends are compared by interface identity, so two stores never
// collide even when their array IDs do.
type cacheKey struct {
	src     ChunkSource
	arrayID int64
	chunkNo int
}

type cacheEntry struct {
	key  cacheKey
	data []byte
	pins atomic.Int32 // readers decoding data; rises only under the cache's lock
}

// ChunkRecycler is implemented by a ChunkSource that wants its payloads
// back for reuse: the cache passes one to RecycleChunk when its entry
// leaves with no reader pinning it. A source emitting memory it keeps
// must not implement it.
type ChunkRecycler interface {
	RecycleChunk(data []byte)
}

// flight is one in-progress back-end fetch of a chunk. Concurrent
// readers of an uncached chunk coalesce onto the first claimant's
// flight instead of issuing duplicate reads (singleflight); done is
// closed when the payload (or the claimant's error) is available.
type flight struct {
	done    chan struct{}
	entry   *cacheEntry // set by resolve, pinned once per waiter; nil on failure
	err     error
	waiters int32 // readers resolve pins the entry for; guarded by mu
}

// ChunkCacheStats is a snapshot of a cache's counters.
type ChunkCacheStats struct {
	Hits      int64 // lookups served from cache
	Misses    int64 // lookups that claimed a back-end fetch
	Coalesced int64 // lookups that joined another reader's in-flight fetch
	Evictions int64 // entries evicted to honor the budget
	Entries   int64 // chunks currently cached
	Bytes     int64 // payload bytes currently cached
	PeakBytes int64 // high-water mark of cached payload bytes
	Budget    int64 // byte budget (0 = unlimited)
}

// ChunkCache is a memory-budgeted LRU cache of chunk payloads shared
// by every array proxy in the process, keyed by (back-end, arrayID,
// chunkNo). Hits refresh recency; inserts evict from the cold end
// until the byte budget (or legacy chunk-count cap) is honored again,
// so the cached bytes never exceed the budget. It also carries the
// singleflight registry that deduplicates concurrent fetches of the
// same chunk.
//
// A payload is the cache's from emit on; a reader may read it only
// while pinned, from the lookup that hands it out until decoded. An
// entry leaving unpinned (evicted, purged, reset) returns its payload
// to a ChunkRecycler source; a pinned one is left to the collector.
type ChunkCache struct {
	mu        sync.Mutex
	maxBytes  int64 // 0 = unlimited
	maxChunks int   // 0 = unlimited; legacy per-proxy CacheCap semantics
	used      int64
	peak      int64
	ll        *list.List // front = most recently used
	entries   map[cacheKey]*list.Element
	inflight  map[cacheKey]*flight

	hits, misses, coalesced, evictions int64
}

// NewChunkCache creates a cache bounded to budgetBytes of payload
// (<= 0 means unlimited).
func NewChunkCache(budgetBytes int64) *ChunkCache {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	return &ChunkCache{
		maxBytes: budgetBytes,
		ll:       list.New(),
		entries:  make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]*flight),
	}
}

// newChunkCacheChunks creates a cache bounded by entry count — the
// legacy per-proxy CacheCap semantics.
func newChunkCacheChunks(maxChunks int) *ChunkCache {
	c := NewChunkCache(0)
	c.maxChunks = maxChunks
	return c
}

// sharedChunkCache is the process-wide default every proxy without a
// private cache uses.
var sharedChunkCache = NewChunkCache(DefaultChunkCacheBytes)

// SharedChunkCache returns the process-wide chunk cache.
func SharedChunkCache() *ChunkCache { return sharedChunkCache }

// SetBudget changes the byte budget (<= 0 means unlimited), evicting
// immediately if the cache is over the new budget.
func (c *ChunkCache) SetBudget(budgetBytes int64) {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = budgetBytes
	c.evictLocked()
}

// Budget returns the current byte budget (0 = unlimited).
func (c *ChunkCache) Budget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxBytes
}

// Stats returns a consistent snapshot of the counters.
func (c *ChunkCache) Stats() ChunkCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChunkCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Entries:   int64(len(c.entries)),
		Bytes:     c.used,
		PeakBytes: c.peak,
		Budget:    c.maxBytes,
	}
}

// Reset discards every entry and zeroes the counters (in-flight
// fetches are unaffected). Benchmarks use it between configurations.
func (c *ChunkCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.ll.Len() > 0 {
		c.removeLocked(c.ll.Front())
	}
	c.peak = 0
	c.hits, c.misses, c.coalesced, c.evictions = 0, 0, 0, 0
}

// evictLocked drops cold entries until the budget is honored.
func (c *ChunkCache) evictLocked() {
	over := func() bool {
		if c.maxBytes > 0 && c.used > c.maxBytes {
			return true
		}
		if c.maxChunks > 0 && len(c.entries) > c.maxChunks {
			return true
		}
		return false
	}
	for over() {
		el := c.ll.Back()
		if el == nil {
			return
		}
		c.removeLocked(el)
		c.evictions++
	}
}

// removeLocked drops an entry, handing its payload back to its source
// if no reader holds a pin.
func (c *ChunkCache) removeLocked(el *list.Element) {
	e := c.ll.Remove(el).(*cacheEntry)
	delete(c.entries, e.key)
	c.used -= int64(len(e.data))
	if r, ok := e.key.src.(ChunkRecycler); ok && e.pins.Load() == 0 {
		r.RecycleChunk(e.data)
	}
}

// insertLocked caches a payload (keeping any existing entry) pinned
// pins times, and evicts to budget. The peak gauge is updated after
// eviction, so it reports the bytes the cache actually retained.
func (c *ChunkCache) insertLocked(k cacheKey, data []byte, pins int32) *cacheEntry {
	if el, ok := c.entries[k]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.pins.Add(pins)
		return e
	}
	e := &cacheEntry{key: k, data: data}
	e.pins.Store(pins)
	c.entries[k] = c.ll.PushFront(e)
	c.used += int64(len(data))
	c.evictLocked()
	if c.used > c.peak {
		c.peak = c.used
	}
	return e
}

// lookupOrClaim is the heart of the cache's read path. Exactly one of
// the three outcomes holds:
//
//   - e != nil: cache hit (recency refreshed);
//   - fl != nil, claimed == false: another reader is already fetching
//     this chunk — wait on fl.done;
//   - fl != nil, claimed == true: the caller owns the fetch and must
//     finish it with resolve or fail, or waiters hang.
//
// With pin the caller is a reader: a hit comes pinned, and on a flight
// the caller is a waiter resolve pins the entry for. It ends with
// unpin, or with release if it stops waiting.
func (c *ChunkCache) lookupOrClaim(k cacheKey, pin bool) (e *cacheEntry, fl *flight, claimed bool) {
	var w int32
	if pin {
		w = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		e = el.Value.(*cacheEntry)
		e.pins.Add(w)
		return e, nil, false
	}
	if fl, ok := c.inflight[k]; ok {
		c.coalesced++
		fl.waiters += w
		return nil, fl, false
	}
	c.misses++
	fl = &flight{done: make(chan struct{}), waiters: w}
	c.inflight[k] = fl
	return nil, fl, true
}

// unpin ends a reader's use of an entry's payload.
func (c *ChunkCache) unpin(e *cacheEntry) { e.pins.Add(-1) }

// release ends a reader's hold unread: its pin on e or, on a flight it
// stopped waiting for, the pin resolve gave it or its waiter's place.
func (c *ChunkCache) release(e *cacheEntry, fl *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e == nil {
		e = fl.entry
	}
	if e != nil {
		c.unpin(e)
	} else {
		fl.waiters--
	}
}

// resolve completes a claimed fetch: the payload enters the cache,
// pinned for every waiter, and the waiters are released.
func (c *ChunkCache) resolve(k cacheKey, fl *flight, data []byte) {
	c.mu.Lock()
	fl.entry = c.insertLocked(k, data, fl.waiters)
	if c.inflight[k] == fl {
		delete(c.inflight, k)
	}
	c.mu.Unlock()
	close(fl.done)
}

// fail completes a claimed fetch with an error. Waiters observe the
// error and retry the fetch themselves, so one reader's cancellation
// cannot poison another reader's query.
func (c *ChunkCache) fail(k cacheKey, fl *flight, err error) {
	c.mu.Lock()
	if c.inflight[k] == fl {
		delete(c.inflight, k)
	}
	c.mu.Unlock()
	fl.err = err
	close(fl.done)
}

// purge drops every cached chunk of one array (the per-proxy
// DropCache surface).
func (c *ChunkCache) purge(src ChunkSource, arrayID int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, el := range c.entries {
		if k.src == src && k.arrayID == arrayID {
			c.removeLocked(el)
		}
	}
}

// countFor reports how many chunks of one array are cached.
func (c *ChunkCache) countFor(src ChunkSource, arrayID int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k := range c.entries {
		if k.src == src && k.arrayID == arrayID {
			n++
		}
	}
	return n
}
