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
//
// Past a single memory component, the store range-partitions across N
// independent engines — per-shard WALs, drain pools, flush pipelines and
// group-commit queues — behind the same API:
//
//	db, err := flodb.Open(dir, flodb.WithShards(4))
//
// Scans and iterators merge the shards in global key order, Snapshot
// pins one consistent cut across all of them, and Checkpoint fans out
// into per-shard copies. See the README's sharding section for the
// cross-shard atomicity caveats.
package flodb

import (
	"context"

	"flodb/internal/core"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/shard"
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

// DB is a FloDB store — a single engine by default, or a
// range-partitioned set of engines behind the same surface when opened
// with WithShards. All methods are safe for concurrent use; Close must
// not race with other operations.
type DB struct {
	inner kv.Store
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
// budget, a Membuffer fraction outside (0,1), ...) are rejected with a
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
		Dir:               dir,
		MemoryBytes:       o.memoryBytes,
		MembufferFraction: o.membufferFraction,
		PartitionBits:     o.partitionBits,
		DrainThreads:      o.drainThreads,
		DisableWAL:        o.disableWAL,
		WALWriteThrough:   o.walWriteThrough,
		Durability:        o.durability,
		DisableTelemetry:  o.disableTelemetry,
	}
	cfg.Storage.BlockCacheBytes = o.blockCacheBytes
	cfg.Storage.TableCacheCapacity = o.tableCacheCap
	// A sharded root must never be shadowed by a fresh unsharded engine:
	// detect the SHARDS manifest and adopt its layout when the caller
	// didn't pass a shard policy. An explicit mismatching Static count
	// (including Static(1) on a sharded root) is rejected by shard.Open.
	detected, err := shard.DetectShards(dir)
	if err != nil {
		return nil, err
	}
	p := o.policy
	n := p.shards
	if n == 0 && !p.dynamic {
		n = detected
	}
	if n > 1 || detected > 0 || p.dynamic {
		// Sharded engine: cfg becomes the per-shard template (shard.Open
		// assigns the subdirectories and splits the memory budget).
		scfg := shard.Config{Dir: dir, Shards: n, Core: cfg}
		if p.hashed {
			scfg.Splitter = shard.HashSplitter{}
		}
		if p.dynamic {
			// Fresh stores start at MinShards (Shards stays 0 so a reopen
			// adopts whatever layout the last run's splits left behind).
			scfg.Shards = 0
			scfg.Dynamic = shard.Dynamic{
				Enabled:   true,
				MinShards: p.minShards,
				MaxShards: p.maxShards,
			}
		}
		inner, err := shard.Open(scfg)
		if err != nil {
			return nil, err
		}
		return &DB{inner: inner}, nil
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
//
// On a sharded store the per-shard bounds are pinned under a brief
// cross-shard write barrier, so the handle is one globally consistent
// cut.
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

// Stats returns a snapshot of operation counters. On a sharded store the
// counters aggregate across shards (ShardStats has the breakdown).
func (db *DB) Stats() Stats { return db.inner.(kv.StatsProvider).Stats() }

// Shards returns the store's LIVE shard count: 1 for the default
// unsharded engine. Under an Adaptive policy the count can change
// between calls; ShardTopology returns the epoch that versions it.
func (db *DB) Shards() int {
	if s, ok := db.inner.(*shard.Store); ok {
		return s.Count()
	}
	return 1
}

// Topology is the store's shard layout, versioned by Epoch: Shards
// engines, routed by Routing ("range" or "hash"), with Boundaries
// holding the Shards-1 ascending range cut keys (nil under hash
// routing). The epoch bumps on every Adaptive split or merge, so a
// caller that cached routing decisions compares epochs to detect a
// layout change.
type Topology = shard.Topology

// ErrDynamicHashRouting is returned by Open when an Adaptive policy
// meets hash routing — a hash-routed shard spans the whole keyspace,
// leaving no boundary to split.
var ErrDynamicHashRouting = shard.ErrDynamicHashRouting

// FutureManifestError is returned by Open when the store's SHARDS
// manifest was written by a newer binary than this one. Detect it with
// errors.As to tell an upgrade problem from corruption.
type FutureManifestError = shard.FutureManifestError

// ShardTopology returns a snapshot of the live shard layout. An
// unsharded store reports the trivial topology: one shard, epoch 1.
// The boundary keys are copies; the caller may retain them.
func (db *DB) ShardTopology() Topology {
	if s, ok := db.inner.(*shard.Store); ok {
		return s.Topology()
	}
	return Topology{Epoch: 1, Shards: 1, Routing: "range"}
}

// ShardStats returns each shard's own counters, indexed by shard, when
// the store was opened with WithShards(n > 1) — the per-shard breakdown
// behind Stats, and the imbalance signal under skewed workloads. It
// returns nil for an unsharded store.
func (db *DB) ShardStats() []Stats {
	if s, ok := db.inner.(*shard.Store); ok {
		return s.PerShard()
	}
	return nil
}

// telemetryProvider is implemented by both engines (core.DB directly,
// shard.Store by merging its shards).
type telemetryProvider interface {
	TelemetrySnapshot() obs.Snapshot
	TelemetryEvents(n int) []obs.Event
}

// TelemetrySnapshot freezes the store's metrics registry: every Stats
// counter under its canonical flodb_* name, the WAL/cache/storage
// views, and — unless telemetry was disabled with WithTelemetry(false)
// — per-op latency histograms and event counts. On a sharded store the
// shards merge: counters sum, histograms merge bucket-wise. The result
// renders to Prometheus text with WritePrometheus; flodbd serves it at
// /metrics.
func (db *DB) TelemetrySnapshot() obs.Snapshot {
	return db.inner.(telemetryProvider).TelemetrySnapshot()
}

// TelemetryEvents returns up to n recent structured lifecycle events
// (flushes, compactions, generation seals, WAL rotations and stalls,
// snapshot pins, shard splits and merges; n <= 0 returns everything
// retained), oldest first. On a sharded store the shards' timelines
// interleave by timestamp. It returns nil when telemetry is disabled.
func (db *DB) TelemetryEvents(n int) []obs.Event {
	return db.inner.(telemetryProvider).TelemetryEvents(n)
}

var (
	_ kv.Store         = (*DB)(nil)
	_ kv.StatsProvider = (*DB)(nil)
)
