// Package cache implements the read cache behind FloDB's disk read path:
// the row cache (rows point reads found, keyed by file number and key hash,
// or by a reserved ID and key hash for the rows the store caches under their
// key) and the table-handle cache (open sstable readers keyed by file number,
// bounding the process's fd budget).
//
// A hit takes no lock. The design carries the memory component's rule (§4.1:
// readers never wait for writers) down to the cache, after CLOCK and
// latch-free record caches such as F2's read cache:
//
//   - Striped: the key hash picks one of N stripes, each with its own
//     mutex, charge budget and table. The capacity is split evenly.
//   - Lookup without a lock: a stripe's table is an open-addressed
//     (linear-probing) array of atomic entry pointers. Readers load the
//     table and probe it; inserts, erasures and evictions change it under
//     the stripe mutex, and growing it builds a new table and publishes it
//     atomically. A deletion shifts the entries behind it back into the
//     hole, so a reader probing at that moment can miss an entry that is
//     present; for a cache that is one more miss.
//   - CLOCK instead of LRU: a hit sets the entry's reference bit if it is
//     clear, and that is the only write a hit makes to the entry. The
//     eviction hand sweeps the table under the lock, clearing set bits and
//     evicting the first unpinned entry whose bit is already clear.
//   - Charge-based accounting: every entry carries an explicit charge
//     (bytes for rows, 1 for table handles); a stripe evicts whenever its
//     charged total exceeds its share of the capacity.
//   - Pinned handles: Get and Insert return a pinned *Handle. An entry's
//     refcount counts the cache's own reference plus one per pin, and 0 is
//     a dead state no pin can leave, so a pin is one compare-and-swap and
//     eviction claims an unpinned entry with one (1 → 0). While a handle is
//     unreleased the entry is skipped by eviction — an open sstable reader
//     cannot have its file descriptor closed under an iterator that is
//     mid-read. A stripe whose live entries are all pinned can therefore
//     transiently exceed its capacity; it returns to budget as handles are
//     released and inserts evict.
//   - Unpinned lookups: Lookup serves values inserted without a deleter —
//     immutable, garbage-collected values like rows — with no refcount at
//     all: the caller's reference outlives an eviction.
//   - Deleters: an entry's deleter (close the file, &c.) runs exactly once,
//     when the refcount reaches 0 — never under a pin, never under a lock.
//
// Hit and miss counters are striped by goroutine (obs.StripedCounter), so a
// hit writes no line another core writes too; evictions are counted under
// the stripe lock. Stats surfaces them; kv.Stats forwards them as
// BlockCache*/TableCache*.
package cache

import (
	"sync"
	"sync/atomic"

	"flodb/internal/obs"
)

// Key identifies an entry: an object ID (file number) plus an offset
// within it (a key hash for rows; 0 for whole-object entries like table
// handles). The two-part form lets one cache serve (file, x) keyed entries
// without string allocation on the hot path.
type Key struct {
	ID     uint64
	Offset uint64
}

// Deleter releases an evicted or erased value (e.g. closes an sstable
// reader). It runs exactly once per entry, outside all cache locks,
// after the last pinning handle is released.
type Deleter func(key Key, value any)

// entry is one cached value. Everything but refs and ref is immutable after
// Insert, so a reader that found the entry reads it without a lock.
type entry struct {
	key     Key
	value   any
	charge  int64
	deleter Deleter
	hash    uint64

	// refs is the cache's reference (1 while the entry is in its stripe's
	// table) plus one per unreleased Handle. 0 is dead: the entry has left
	// the table and its deleter has run or is running; nothing pins it
	// again.
	refs atomic.Int32
	// ref is the CLOCK reference bit: set by a hit, cleared by the hand.
	ref atomic.Uint32
}

// table is a stripe's open-addressed index: linear probing over a power of
// two slots, at most maxLoad full, so every probe ends at an empty slot.
type table struct {
	mask  uint64
	slots []atomic.Pointer[entry]
}

// minSlots is a stripe's first table size; maxLoad (in quarters) is the
// fill at which the table doubles.
const (
	minSlots = 16
	maxLoad  = 3
)

func newTable(n int) *table {
	return &table{mask: uint64(n - 1), slots: make([]atomic.Pointer[entry], n)}
}

// find returns the entry for k (h is its hash) and its slot, or nil and
// the empty slot that ended the probe. It takes no lock. The probe is
// bounded by the table size: a reader racing deletions that shift entries
// under it ends, at worst, with a miss. Under the stripe lock the table
// cannot change, so the probe always ends at the entry or an empty slot.
func (t *table) find(k Key, h uint64) (uint64, *entry) {
	i := h & t.mask
	for n := uint64(0); n <= t.mask; n++ {
		e := t.slots[i].Load()
		if e == nil || e.key == k {
			return i, e
		}
		i = (i + 1) & t.mask
	}
	return i, nil
}

// remove empties slot i by shifting back every entry of the probe run
// behind it that may live closer to its home slot (stripe lock held). An
// entry is written to its new slot before its old slot is overwritten, so
// a concurrent reader never sees a run broken by a premature empty slot
// ahead of the entry it seeks — only, at worst, an entry moved behind it.
func (t *table) remove(i uint64) {
	for j := (i + 1) & t.mask; ; j = (j + 1) & t.mask {
		e := t.slots[j].Load()
		if e == nil {
			break
		}
		// e may move to i when i lies in [home, j): it is no nearer j.
		if (j-e.hash)&t.mask >= (j-i)&t.mask {
			t.slots[i].Store(e)
			i = j
		}
	}
	t.slots[i].Store(nil)
}

// stripe is one lock domain. tab sits on its own cache line: every lookup
// reads it, and only a grow writes it, while the fields behind the mutex
// change on every insert.
type stripe struct {
	tab atomic.Pointer[table]
	_   [56]byte

	mu       sync.Mutex
	hand     uint64 // CLOCK hand: the next slot to examine
	live     int
	capacity int64
	usage    int64

	evictions uint64
	_         [64]byte
}

// Cache is a striped CLOCK cache. Create with New; safe for concurrent
// use.
type Cache struct {
	stripes []stripe
	shift   uint // stripe index = hash >> shift

	hits, misses obs.StripedCounter
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

// DefaultStripes is the stripe count New uses.
const DefaultStripes = 16

// New returns a cache bounded by capacity (in charge units), striped
// over DefaultStripes stripes. A non-positive capacity gives a cache that
// holds entries only until the next insert that finds them unpinned —
// still correct, never caching.
func New(capacity int64) *Cache { return NewWithStripes(capacity, DefaultStripes) }

// NewWithStripes returns a cache with an explicit stripe count (rounded
// down to a power of two, min 1). The capacity splits evenly across
// stripes, so for small capacities in coarse units — a table cache
// bounded at a handful of handles — the caller should keep stripes <=
// capacity or the per-stripe budget rounds to zero.
func NewWithStripes(capacity int64, stripes int) *Cache {
	bits := uint(0)
	for 2<<bits <= stripes {
		bits++
	}
	c := &Cache{stripes: make([]stripe, 1<<bits), shift: 64 - bits}
	per := capacity / int64(len(c.stripes))
	for i := range c.stripes {
		s := &c.stripes[i]
		s.capacity = per
		s.tab.Store(newTable(minSlots))
	}
	return c
}

// hash mixes both words of k (splitmix64), so sequential file numbers and
// offsets spread over stripes (high bits) and slots (low bits).
func hash(k Key) uint64 {
	h := k.ID*0x9e3779b97f4a7c15 + k.Offset
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 27
	return h
}

func (c *Cache) stripe(h uint64) *stripe { return &c.stripes[h>>c.shift] }

// touch sets e's reference bit, writing only if it is clear: a hot entry's
// line stays shared between the cores that read it.
func (e *entry) touch() {
	if e.ref.Load() == 0 {
		e.ref.Store(1)
	}
}

// pin takes a reference unless e is dead.
func (e *entry) pin() bool {
	for {
		r := e.refs.Load()
		if r == 0 {
			return false
		}
		if e.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// unref drops one reference and reports whether it was the last.
func (e *entry) unref() bool { return e.refs.Add(-1) == 0 }

// Handle pins one cache entry. Value is valid and the entry safe from
// eviction-triggered deletion until Release. A Handle is the entry itself,
// so taking one allocates nothing.
type Handle entry

// Value returns the pinned entry's value.
func (h *Handle) Value() any { return h.value }

// Release unpins the entry. It must be called exactly once; the handle
// must not be used afterwards.
func (h *Handle) Release() {
	if e := (*entry)(h); e.unref() {
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

// Get returns a pinned handle for key, or nil on miss. It takes no lock: a
// hit costs a probe, one compare-and-swap on the entry's refcount, and the
// reference bit if it was clear.
func (c *Cache) Get(key Key) *Handle {
	h := hash(key)
	if _, e := c.stripe(h).tab.Load().find(key, h); e != nil && e.pin() {
		e.touch()
		c.hits.Inc()
		return (*Handle)(e)
	}
	c.misses.Inc()
	return nil
}

// Lookup returns the value cached under key, or nil, without pinning it.
// It serves only entries inserted without a deleter — immutable values the
// garbage collector frees, which stay valid in the caller's hands after an
// eviction; an entry with a deleter is reported absent (pin it with Get).
// A hit writes nothing but the entry's reference bit, and that only if it
// was clear.
func (c *Cache) Lookup(key Key) any {
	h := hash(key)
	if _, e := c.stripe(h).tab.Load().find(key, h); e != nil && e.deleter == nil {
		e.touch()
		c.hits.Inc()
		return e.value
	}
	c.misses.Inc()
	return nil
}

// Insert adds value under key with the given charge, returning a pinned
// handle to it. An existing entry under the same key is displaced (its
// deleter runs once its own pins drain). Insert then evicts unpinned
// entries until the stripe is back within capacity; entries pinned by
// outstanding handles are skipped, so a fully-pinned stripe may
// transiently exceed its budget.
func (c *Cache) Insert(key Key, value any, charge int64, deleter Deleter) *Handle {
	h := hash(key)
	s := c.stripe(h)
	e := &entry{key: key, value: value, charge: charge, deleter: deleter, hash: h}
	e.refs.Store(2) // the cache's and the returned handle's

	s.mu.Lock()
	dead := s.put(e, nil)
	dead = s.evict(dead)
	s.mu.Unlock()

	for _, d := range dead {
		d.delete()
	}
	return (*Handle)(e)
}

// Erase removes key from the cache if present. The deleter runs after
// outstanding pins drain.
func (c *Cache) Erase(key Key) {
	h := hash(key)
	s := c.stripe(h)
	s.mu.Lock()
	t := s.tab.Load()
	i, e := t.find(key, h)
	if e != nil {
		t.remove(i)
		s.live--
		s.usage -= e.charge
	}
	s.mu.Unlock()
	if e != nil && e.unref() {
		e.delete()
	}
}

// Close empties the cache. Entries still pinned by outstanding handles
// are detached and die when released; unpinned entries die now. The
// cache remains usable (a closed-then-used cache just caches again), so
// Close doubles as Purge.
func (c *Cache) Close() {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		t := s.tab.Load()
		s.tab.Store(newTable(minSlots))
		var dead []*entry
		for j := range t.slots {
			if e := t.slots[j].Load(); e != nil {
				s.usage -= e.charge
				if e.unref() && e.deleter != nil {
					dead = append(dead, e)
				}
			}
		}
		s.live, s.hand = 0, 0
		s.mu.Unlock()
		for _, d := range dead {
			d.delete()
		}
	}
}

// Stats sums the stripe counters.
func (c *Cache) Stats() Stats {
	st := Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		st.Evictions += s.evictions
		st.Bytes += s.usage
		st.Entries += s.live
		s.mu.Unlock()
	}
	return st
}

// Len returns the resident entry count.
func (c *Cache) Len() int { return c.Stats().Entries }

// LockForTesting takes every stripe lock and returns the function that
// drops them all. Tests use it to show that a path takes none of them.
func (c *Cache) LockForTesting() (unlock func()) {
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
	}
	return func() {
		for i := range c.stripes {
			c.stripes[i].mu.Unlock()
		}
	}
}

// put places e in the table (stripe lock held), displacing an entry under
// the same key, and grows the table past maxLoad. Entries whose last
// reference the displacement dropped are appended to dead for deletion
// outside the lock.
func (s *stripe) put(e *entry, dead []*entry) []*entry {
	t := s.tab.Load()
	i, old := t.find(e.key, e.hash)
	t.slots[i].Store(e)
	if old != nil {
		s.usage += e.charge - old.charge
		if old.unref() && old.deleter != nil {
			dead = append(dead, old)
		}
		return dead
	}
	s.live++
	s.usage += e.charge
	if s.live*4 > len(t.slots)*maxLoad {
		s.grow(t)
	}
	return dead
}

// grow publishes a table twice t's size holding t's entries (stripe lock
// held). Readers still probing t find what it held when it was replaced.
func (s *stripe) grow(t *table) {
	n := newTable(2 * len(t.slots))
	for j := range t.slots {
		e := t.slots[j].Load()
		if e == nil {
			continue
		}
		i := e.hash & n.mask
		for n.slots[i].Load() != nil {
			i = (i + 1) & n.mask
		}
		n.slots[i].Store(e)
	}
	s.tab.Store(n)
}

// evict sweeps the CLOCK hand until usage fits capacity (stripe lock held).
// A set reference bit buys its entry one more sweep; a pinned entry (refs
// > 1) is passed over. An unpinned one is claimed by moving its refcount
// from 1 straight to the dead 0 — a Get racing to pin it fails and
// reports a miss — and removed; the entry shifted into its slot is
// examined next. The sweep gives up after three passes' worth of steps
// (one to clear every bit, one to evict, and the removals), which only a
// stripe of pinned entries reaches.
func (s *stripe) evict(dead []*entry) []*entry {
	t := s.tab.Load()
	for steps := 3 * len(t.slots); s.usage > s.capacity && steps > 0; steps-- {
		i := s.hand & t.mask
		e := t.slots[i].Load()
		switch {
		case e == nil:
		case e.ref.Load() != 0:
			e.ref.Store(0)
		case e.refs.CompareAndSwap(1, 0):
			t.remove(i)
			s.live--
			s.usage -= e.charge
			s.evictions++
			if e.deleter != nil {
				dead = append(dead, e)
			}
			continue
		}
		s.hand++
	}
	return dead
}
