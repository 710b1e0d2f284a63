// Package flodb is a persistent key-value store with a two-level memory
// component, implementing the design of "FloDB: Unlocking Memory in
// Persistent Key-Value Stores" (Balmau, Guerraoui, Trigonakis, Zablotchi —
// EuroSys 2017).
//
// A FloDB store layers a small concurrent hash table (the Membuffer) above
// a large concurrent skiplist (the Memtable) above a leveled on-disk LSM
// tree. Updates complete in the hash table in constant time regardless of
// how much memory the store is given; background threads continuously
// drain them into the skiplist using batched multi-inserts; the skiplist
// flushes to disk without a sorting step. Reads check the levels in
// freshness order. Scans and iterators read one point-in-time view each
// and run concurrently with updates.
//
// Every operation takes a context.Context: cancellation and deadlines are
// honored at every wait point (iterator positioning, drain waits, write
// backpressure), and context errors surface via errors.Is.
//
// Quick start:
//
//	db, err := flodb.Open("/tmp/mydb", flodb.WithMemory(64<<20))
//	if err != nil { ... }
//	defer db.Close()
//
//	ctx := context.Background()
//	db.Put(ctx, []byte("k"), []byte("v"))
//	v, found, err := db.Get(ctx, []byte("k"))
//
// Ranges stream through a cursor, so a scan larger than memory never
// materializes:
//
//	it, err := db.NewIterator(ctx, []byte("a"), []byte("z"))
//	if err != nil { ... }
//	defer it.Close()
//	for ok := it.First(); ok; ok = it.Next() {
//		process(it.Key(), it.Value())
//	}
//	if err := it.Err(); err != nil { ... }
//
// Mutations group into atomic batches — one WAL record, one fsync,
// all-or-nothing recovery:
//
//	b := flodb.NewWriteBatch()
//	b.Put([]byte("k1"), []byte("v1"))
//	b.Delete([]byte("k2"))
//	if err := db.Apply(ctx, b); err != nil { ... }
//
// Durability is a per-operation choice. Writes default to Buffered
// (logged, no fsync — the store's open-time default, tunable with
// WithDurability); any single write can demand more or less, and Sync is
// a store-wide barrier that promotes everything already acknowledged:
//
//	db.Put(ctx, k, v)                  // buffered: logged, no fsync
//	db.Put(ctx, k, v, flodb.WithSync()) // group-committed fsync before return
//	db.Put(ctx, k, v, flodb.WithDurability(flodb.DurabilityNone)) // not logged
//	db.Sync(ctx)                       // barrier: everything acked is now durable
//
// The commit log is always on. A store opened with
// WithDurability(DurabilityNone) — the paper's benchmark setup — appends
// no record for a write that names no class, yet any write may still ask
// for Buffered or Sync, and every open replays what the log holds.
//
// Concurrent Sync-class writers share disk barriers through the WAL's
// group-commit queue: one fsync acknowledges many writers, so turning
// durability on does not re-serialize the memory-speed write path behind
// the log.
//
// Named read views give multi-request consistency and online backup:
//
//	snap, err := db.Snapshot(ctx)  // repeatable-read handle
//	if err != nil { ... }
//	defer snap.Close()
//	v1, _, _ := snap.Get(ctx, []byte("k"))  // repeats identically
//
//	err = db.Checkpoint(ctx, "/backups/mydb-2026-07-25")  // openable copy
package flodb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"flodb/internal/core"
	"flodb/internal/kv"
	"flodb/internal/obs"
)

// Pair is a key-value pair returned by Scan.
type Pair = kv.Pair

// Stats is a snapshot of store operation counters.
type Stats = kv.Stats

// View is a read-only view of the store: Get, Scan, NewIterator, Close.
// A *DB is itself the live View; Snapshot returns a View pinned at a
// point in time. See the kv package for the full contract.
type View = kv.View

// Durability classifies how durable a write is when its call returns:
// None (not logged; lost on crash), Buffered (staged in the log, no
// flush/fsync; a crash may lose a recent suffix of acked writes, never a
// middle slice), Sync (group-committed fsync before the call returns).
// The store's default is set at Open with WithDurability; each Put,
// Delete and Apply may override it.
type Durability = kv.Durability

// The durability classes. DurabilityDefault defers to the store default.
const (
	DurabilityDefault  = kv.DurabilityDefault
	DurabilityNone     = kv.DurabilityNone
	DurabilityBuffered = kv.DurabilityBuffered
	DurabilitySync     = kv.DurabilitySync
)

// WriteOption tunes a single Put, Delete or Apply call; WithSync and
// WithDurability produce them.
type WriteOption = kv.WriteOption

// The error taxonomy. Implementations wrap these, so always test with
// errors.Is.
var (
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = kv.ErrClosed
	// ErrSnapshotReleased is returned by reads through a snapshot whose
	// Close has run.
	ErrSnapshotReleased = kv.ErrSnapshotReleased
	// ErrNotSupported is returned when the store's configuration cannot
	// provide an operation.
	ErrNotSupported = kv.ErrNotSupported
)

// DB is a FloDB store. All methods are safe for concurrent use; Close
// must not race with other operations.
type DB struct {
	inner *core.DB
}

// Open opens (creating if needed) a store in dir, tuned by opts.
//
//	db, err := flodb.Open(dir,
//		flodb.WithMemory(128<<20),
//		flodb.WithDrainThreads(4),
//		flodb.WithDurability(flodb.DurabilitySync),
//	)
//
// With no options the store uses the paper's defaults scaled for a
// development machine. Out-of-range option values (a non-positive memory
// budget, a drain-thread count below one, ...) are rejected with a
// descriptive error.
func Open(dir string, opts ...Option) (*DB, error) {
	var o options
	for _, opt := range opts {
		if opt != nil {
			opt.apply(&o)
		}
	}
	if o.err != nil {
		return nil, o.err
	}
	cfg := core.Config{
		Dir:             dir,
		MemoryBytes:     o.memoryBytes,
		DrainThreads:    o.drainThreads,
		WALWriteThrough: o.walWriteThrough,
		Durability:      o.durability,
	}
	cfg.Storage.BlockCacheBytes = o.blockCacheBytes
	cfg.Storage.TableCacheCapacity = o.tableCacheCap
	// A root left by the removed shard tier holds its data under
	// shard-NNN subdirectories; opening it as one engine would create an
	// empty store over them.
	manifest := filepath.Join(dir, "SHARDS")
	if _, err := os.Lstat(manifest); err == nil {
		return nil, fmt.Errorf("flodb: %s: sharded store layout: %w", manifest, ErrNotSupported)
	}
	inner, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner}, nil
}

// Put inserts or overwrites key with value. The slices are copied; the
// caller may reuse them. By default the write commits under the store's
// durability class; WithSync / WithDurability override it for this call.
func (db *DB) Put(ctx context.Context, key, value []byte, opts ...WriteOption) error {
	return db.inner.Put(ctx, key, value, opts...)
}

// Delete removes key. Deleting an absent key is not an error. Durability
// options apply as in Put.
func (db *DB) Delete(ctx context.Context, key []byte, opts ...WriteOption) error {
	return db.inner.Delete(ctx, key, opts...)
}

// Sync is the durability barrier: it blocks until every write
// acknowledged before the call — on any goroutine — is crash-durable,
// promoting the whole acked-but-buffered window with one group-committed
// disk barrier per live WAL segment. A batch-load pattern: stream
// thousands of Buffered writes at memory speed, then Sync once.
//
// Stats reports the boundary: writes up to DurableSeq are durable,
// (DurableSeq, AckedSeq] is the window Sync closes.
func (db *DB) Sync(ctx context.Context) error {
	return db.inner.Sync(ctx)
}

// Get returns the current value of key. found is false if the key is
// absent or deleted. The returned slice is a copy.
func (db *DB) Get(ctx context.Context, key []byte) (value []byte, found bool, err error) {
	return db.inner.Get(ctx, key)
}

// Scan returns all pairs with low <= key < high in key order. Nil bounds
// are open. The result is a consistent snapshot: point-in-time semantics
// as defined in §2.1 of the paper. It is NewIterator driven to the end
// and copied out — the whole range is materialized; prefer NewIterator
// for large or unbounded ranges.
func (db *DB) Scan(ctx context.Context, low, high []byte) ([]Pair, error) {
	return db.inner.Scan(ctx, low, high)
}

// Snapshot returns a repeatable-read View pinned at the current state:
// its Gets, Scans and iterators observe exactly the data committed before
// the call, however many writes land afterwards, until the handle is
// Closed.
//
// A snapshot is the view every iterator opens, kept until Close instead
// of until the cursor's: the call seals the Membuffer (the hash table's
// entries are unsequenced, so they must reach the skiplist before a
// sequence bound can mean anything — time proportional to what is
// resident in it), draws a sequence bound, and pins the live skiplist
// plus the current disk version at that bound. No memtable flush happens.
// While the handle is open, in-place skiplist overwrites keep a short
// per-key version chain so the snapshot's reads resolve to the newest
// version at or below its bound; the chains are pruned back to single
// versions as readers close. The handle also pins sstables until Close,
// so holding snapshots delays space reclamation and retains superseded
// values in memory — it never blocks writers after the seal returns.
func (db *DB) Snapshot(ctx context.Context) (View, error) {
	return db.inner.Snapshot(ctx)
}

// Checkpoint writes an openable copy of the store into dir (which must
// not exist or be empty) while the store stays online. Immutable sstables
// are hard-linked (copied across filesystems), the manifest is rewritten,
// and the WAL tail is copied, so flodb.Open(dir) recovers a
// prefix-consistent state: every update it contains completed here before
// some point during the call, with no holes in commit order. Use it to
// seed replicas and take online backups.
func (db *DB) Checkpoint(ctx context.Context, dir string) error {
	return db.inner.Checkpoint(ctx, dir)
}

// Close flushes the memory component to disk and releases all resources.
// It must not run concurrently with other operations.
func (db *DB) Close() error { return db.inner.Close() }

// Stats returns a snapshot of operation counters.
func (db *DB) Stats() Stats { return db.inner.Stats() }

// TelemetrySnapshot freezes the store's metrics registry: every Stats
// counter under its canonical flodb_* name, the WAL/cache/storage
// views, the per-op latency histograms and the event counts. The result renders to
// Prometheus text with WritePrometheus; flodbd serves it at /metrics.
func (db *DB) TelemetrySnapshot() obs.Snapshot {
	return db.inner.TelemetrySnapshot()
}

// TelemetryEvents returns up to n recent structured lifecycle events
// (flushes, compactions, generation seals, WAL rotations and stalls,
// snapshot pins; n <= 0 returns everything retained), oldest first.
func (db *DB) TelemetryEvents(n int) []obs.Event {
	return db.inner.TelemetryEvents(n)
}

var (
	_ kv.Store         = (*DB)(nil)
	_ kv.StatsProvider = (*DB)(nil)
)
