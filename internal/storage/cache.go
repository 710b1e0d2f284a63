package storage

import (
	"flodb/internal/cache"
	"flodb/internal/sstable"
)

// DefaultTableCacheCapacity bounds the number of concurrently open
// sstable readers when the caller does not choose one. Each cached
// reader holds one file descriptor plus its parsed index and bloom
// filter; 256 keeps the store far below the common 1024 soft fd rlimit
// even with WAL, manifest, sockets and a few hundred goroutine stacks'
// worth of incidental files on top, while still covering every table of
// a ~1 GiB store without churn. See TestTableCacheFDBudget for the
// reasoning spelled out as an executable check.
const DefaultTableCacheCapacity = 256

// tableCache maps file numbers to open sstable readers through a
// capacity-bounded cache.Cache, whose hits take no lock. Lookups return a
// pinned handle (one compare-and-swap on a hit): the reader's
// file descriptor cannot be closed — by eviction under fd pressure or
// by Evict when compaction obsoletes the file — until the handle is
// released, so iterators mid-read on a just-compacted table keep
// working. The old implementation here was an unbounded map that only
// evicted obsolete files; a long-lived store with many small tables
// could crawl past the process fd budget.
type tableCache struct {
	dir string
	c   *cache.Cache

	// opts is threaded into every reader this cache opens, wiring the
	// store's shared row cache into each table.
	opts sstable.ReaderOptions
}

func newTableCache(dir string, capacity int, opts sstable.ReaderOptions) *tableCache {
	if capacity <= 0 {
		capacity = DefaultTableCacheCapacity
	}
	// Keep stripes <= capacity so the per-shard budget never rounds to
	// zero (capacity is counted in whole handles, charge 1 each).
	shards := cache.DefaultShards
	for shards > capacity {
		shards /= 2
	}
	return &tableCache{dir: dir, c: cache.NewWithShards(int64(capacity), shards), opts: opts}
}

func closeReader(_ cache.Key, v any) { v.(*sstable.Reader).Close() }

// Get returns a pinned reader for table num, opening it on first use.
// The caller must Release the handle when done with the reader; the
// reader stays valid (fd open) until then even if the entry is evicted
// or erased meanwhile.
func (c *tableCache) Get(num uint64) (*sstable.Reader, *cache.Handle, error) {
	k := cache.Key{ID: num}
	if h := c.c.Get(k); h != nil {
		return h.Value().(*sstable.Reader), h, nil
	}
	o := c.opts
	o.CacheID = num
	r, err := sstable.OpenOptions(TableFileName(c.dir, num), o)
	if err != nil {
		return nil, nil, err
	}
	// Two opens can race on a miss; both insert and the loser's entry is
	// displaced, closing its reader once the loser's handle is released.
	// Rare (first touch of a table) and harmless.
	h := c.c.Insert(k, r, 1, closeReader)
	return r, h, nil
}

// Evict forgets the reader for num, if cached. The close is deferred
// past any outstanding pins.
func (c *tableCache) Evict(num uint64) { c.c.Erase(cache.Key{ID: num}) }

// Close releases every cached reader (pinned ones close when their
// pins drain).
func (c *tableCache) Close() { c.c.Close() }

// Len reports the number of cached readers (diagnostics).
func (c *tableCache) Len() int { return c.c.Len() }

// Stats exposes the underlying cache counters.
func (c *tableCache) Stats() cache.Stats { return c.c.Stats() }
