// Package cache implements the striped LRU cache behind FloDB's read
// path: the block cache (parsed sstable blocks keyed by file number and
// block offset) and the table-handle cache (open sstable readers keyed
// by file number, bounding the process's fd budget).
//
// The design is the classic LevelDB/pebble sharded LRU, adapted to Go:
//
//   - Striped: the key hash picks one of N independent shards, each with
//     its own mutex, hash map and LRU list, so concurrent readers on
//     different blocks never serialize on one lock. The capacity is
//     split evenly across shards.
//   - Charge-based accounting: every entry carries an explicit charge
//     (bytes for blocks, 1 for table handles); a shard evicts from the
//     cold end whenever its charged total exceeds its share of the
//     capacity.
//   - Pinned handles: Get and Insert return a refcounted *Handle. While
//     a handle is unreleased the entry is skipped by eviction — an open
//     sstable reader cannot have its file descriptor closed under an
//     iterator that is mid-read. A cache whose live entries are all
//     pinned can therefore transiently exceed its capacity; it returns
//     to budget as handles are released.
//   - Deleters: an entry's deleter (close the file, &c.) runs exactly
//     once, after the entry has left the cache AND the last handle is
//     released — never under a shard lock.
//
// Hit, miss and eviction counters are maintained per cache and surfaced
// through Stats; kv.Stats forwards them as BlockCache*/TableCache*.
package cache

import "sync"

// Key identifies an entry: an object ID (file number) plus an offset
// within it (block offset; 0 for whole-object entries like table
// handles). The two-part form lets one cache serve (file, block) keyed
// blocks without string allocation on the hot path.
type Key struct {
	ID     uint64
	Offset uint64
}

// Deleter releases an evicted or erased value (e.g. closes an sstable
// reader). It runs exactly once per entry, outside all cache locks,
// after the last pinning handle is released.
type Deleter func(key Key, value any)

// entry is one cached value. refs counts the cache's own reference
// (1 while resident) plus one per unreleased Handle; all fields are
// guarded by the owning shard's mutex except value/charge/deleter,
// which are immutable after insert.
type entry struct {
	key     Key
	value   any
	charge  int64
	deleter Deleter

	refs    int32
	inCache bool

	// LRU links; valid while inCache. The list is most-recent first.
	prev, next *entry
}

// shard is one stripe: a map for lookup plus an intrusive LRU list for
// eviction order. head.next is the hottest entry, head.prev the
// coldest.
type shard struct {
	mu       sync.Mutex
	capacity int64
	usage    int64
	m        map[Key]*entry
	head     entry // sentinel

	hits, misses, evictions uint64
}

// Cache is a striped LRU cache. Create with New; safe for concurrent
// use.
type Cache struct {
	shards []shard
	mask   uint64
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Bytes is the charged total currently resident (including pinned
	// entries); Entries the resident entry count.
	Bytes   int64
	Entries int
}

// DefaultShards is the stripe count New uses.
const DefaultShards = 16

// New returns a cache bounded by capacity (in charge units), striped
// over DefaultShards shards. A non-positive capacity gives a cache that
// holds entries only while they are pinned — still correct, never
// caching.
func New(capacity int64) *Cache { return NewWithShards(capacity, DefaultShards) }

// NewWithShards returns a cache with an explicit stripe count (rounded
// down to a power of two, min 1). The capacity splits evenly across
// stripes, so for small capacities in coarse units — a table cache
// bounded at a handful of handles — the caller should keep shards <=
// capacity or the per-shard budget rounds to zero.
func NewWithShards(capacity int64, shards int) *Cache {
	n := 1
	for n*2 <= shards {
		n *= 2
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1)}
	per := capacity / int64(n)
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = per
		s.m = make(map[Key]*entry)
		s.head.next = &s.head
		s.head.prev = &s.head
	}
	return c
}

// shardFor hashes the key to a stripe (splitmix64 over both words, so
// sequential file numbers and block offsets spread).
func (c *Cache) shardFor(k Key) *shard {
	h := k.ID*0x9e3779b97f4a7c15 + k.Offset
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 31
	return &c.shards[h&c.mask]
}

// Handle pins one cache entry. Value is valid and the entry safe from
// eviction-triggered deletion until Release.
type Handle struct {
	s *shard
	e *entry
}

// Value returns the pinned entry's value.
func (h *Handle) Value() any { return h.e.value }

// Release unpins the entry. It must be called exactly once; the handle
// must not be used afterwards.
func (h *Handle) Release() {
	s, e := h.s, h.e
	h.s, h.e = nil, nil
	s.mu.Lock()
	e.refs--
	dead := e.refs == 0
	s.mu.Unlock()
	if dead {
		e.delete()
	}
}

// delete runs the deleter; the caller must have established that the
// entry's refcount reached zero (it is detached, so no lock is needed).
func (e *entry) delete() {
	if e.deleter != nil {
		e.deleter(e.key, e.value)
	}
}

// Get returns a pinned handle for key, or nil on miss. It is small enough
// to inline, so a caller that releases the handle before it returns keeps
// the handle on its stack.
func (c *Cache) Get(key Key) *Handle {
	if s, e := c.get(key); e != nil {
		return &Handle{s: s, e: e}
	}
	return nil
}

func (c *Cache) get(key Key) (*shard, *entry) {
	s := c.shardFor(key)
	s.mu.Lock()
	e := s.m[key]
	if e == nil {
		s.misses++
		s.mu.Unlock()
		return s, nil
	}
	s.hits++
	e.refs++
	// Move to the hot end.
	s.listRemove(e)
	s.listPushFront(e)
	s.mu.Unlock()
	return s, e
}

// Insert adds value under key with the given charge, returning a pinned
// handle to it. An existing entry under the same key is displaced (its
// deleter runs once its own pins drain). Insert then evicts cold
// unpinned entries until the shard is back within capacity; entries
// pinned by outstanding handles are skipped, so a fully-pinned shard
// may transiently exceed its budget. Like Get it inlines, for the same
// reason.
func (c *Cache) Insert(key Key, value any, charge int64, deleter Deleter) *Handle {
	s, e := c.insert(key, value, charge, deleter)
	return &Handle{s: s, e: e}
}

func (c *Cache) insert(key Key, value any, charge int64, deleter Deleter) (*shard, *entry) {
	s := c.shardFor(key)
	e := &entry{key: key, value: value, charge: charge, deleter: deleter, refs: 2, inCache: true}

	s.mu.Lock()
	var orphans []*entry
	if old := s.m[key]; old != nil {
		s.detach(old, &orphans)
	}
	s.m[key] = e
	s.listPushFront(e)
	s.usage += charge
	s.evictLocked(&orphans)
	s.mu.Unlock()

	for _, o := range orphans {
		o.delete()
	}
	return s, e
}

// Erase removes key from the cache if present. The deleter runs after
// outstanding pins drain.
func (c *Cache) Erase(key Key) {
	s := c.shardFor(key)
	s.mu.Lock()
	var orphans []*entry
	if e := s.m[key]; e != nil {
		s.detach(e, &orphans)
	}
	s.mu.Unlock()
	for _, o := range orphans {
		o.delete()
	}
}

// Close empties the cache. Entries still pinned by outstanding handles
// are detached and die when released; unpinned entries die now. The
// cache remains usable (a closed-then-used cache just caches again), so
// Close doubles as Purge.
func (c *Cache) Close() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var orphans []*entry
		for _, e := range s.m {
			s.detach(e, &orphans)
		}
		s.mu.Unlock()
		for _, o := range orphans {
			o.delete()
		}
	}
}

// Stats sums the shard counters.
func (c *Cache) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Bytes += s.usage
		st.Entries += len(s.m)
		s.mu.Unlock()
	}
	return st
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// detach removes e from the map, list and accounting (shard lock held),
// dropping the cache's reference. If that was the last reference the
// entry is appended to orphans for deletion outside the lock.
func (s *shard) detach(e *entry, orphans *[]*entry) {
	if !e.inCache {
		return
	}
	e.inCache = false
	delete(s.m, e.key)
	s.listRemove(e)
	s.usage -= e.charge
	e.refs--
	if e.refs == 0 {
		*orphans = append(*orphans, e)
	}
}

// evictLocked walks from the cold end detaching unpinned entries until
// usage fits capacity. Pinned entries (refs > 1: cache ref plus at
// least one handle) are skipped — in-use blocks and table handles are
// never deleted under their readers.
func (s *shard) evictLocked(orphans *[]*entry) {
	for e := s.head.prev; s.usage > s.capacity && e != &s.head; {
		cold := e
		e = e.prev
		if cold.refs > 1 {
			continue
		}
		s.detach(cold, orphans)
		s.evictions++
	}
}

func (s *shard) listPushFront(e *entry) {
	e.next = s.head.next
	e.prev = &s.head
	e.next.prev = e
	s.head.next = e
}

func (s *shard) listRemove(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}
