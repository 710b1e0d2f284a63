package baseline

import (
	"context"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/wal"
)

// RocksDB models Facebook's RocksDB (§2.2, §6): it improves on LevelDB by
// "(a) carefully reducing the size and number of critical sections on the
// global lock and (b) caching metadata locally", and adds "multithreaded
// disk-to-disk compaction which runs in parallel with memory-to-disk
// persistence". Each operation takes ONE short global critical section;
// compaction uses a worker pool.
type RocksDB struct {
	base
}

// NewRocksDB opens a RocksDB-style store.
func NewRocksDB(cfg Config) (*RocksDB, error) {
	if cfg.Storage.CompactionThreads == 0 {
		cfg.Storage.CompactionThreads = 3 // multithreaded compaction
	}
	db := &RocksDB{}
	if err := db.init(cfg); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *RocksDB) write(ctx context.Context, kind keys.Kind, key, value []byte, opts []kv.WriteOption) error {
	if db.closed.Load() {
		return ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := db.loadFlushErr(); err != nil {
		return err
	}
	d, err := db.resolveDurability(opts)
	if err != nil {
		return err
	}
	// Single short critical section: room check, seq, log, size trigger.
	// The snapshot barrier spans allocation through insert so a Snapshot
	// never pins a sequence still in flight.
	db.snapMu.RLock()
	db.mu.Lock()
	if err := db.waitRoomCtxLocked(ctx); err != nil {
		db.mu.Unlock()
		db.snapMu.RUnlock()
		return err
	}
	var w *wal.Writer
	var off int64
	if d != kv.DurabilityNone {
		if w, off, err = db.logRecord(db.mem, kind, key, value); err != nil {
			db.mu.Unlock()
			db.snapMu.RUnlock()
			return err
		}
	}
	h, seq := db.beginConcurrentInsertLocked()
	db.maybeScheduleFlushLocked()
	db.mu.Unlock()

	h.mem.Insert(key, seq, kind, value)
	h.inserting.Done()
	db.snapMu.RUnlock()
	// Group commit outside every lock — the shape of RocksDB's write
	// group: one leader's fsync acknowledges the whole wave of
	// WriteOptions.sync committers.
	if d == kv.DurabilitySync {
		return db.commitSync(w, off)
	}
	return nil
}

// Put inserts with one short global critical section.
func (db *RocksDB) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	db.ops.Puts.Add(1)
	return db.write(ctx, keys.KindSet, key, value, opts)
}

// Delete writes a tombstone version.
func (db *RocksDB) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	db.ops.Deletes.Add(1)
	return db.write(ctx, keys.KindDelete, key, nil, opts)
}

// Get takes one short critical section to capture the view ("caching
// metadata locally reduces synchronized accesses", §6), then reads without
// the lock — the concurrency that lets RocksDB scale reads in Fig 10.
func (db *RocksDB) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if db.closed.Load() {
		return nil, false, ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	db.ops.Gets.Add(1)
	db.mu.Lock()
	mem, imm, snap := db.snapshotLocked()
	db.mu.Unlock()
	v, ok, err := db.getFrom(mem, imm, nil, snap, key)
	if err != nil || !ok {
		return nil, false, err
	}
	return keys.Clone(v), true, nil
}

// Scan produces a snapshot scan with one critical section.
func (db *RocksDB) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	if db.closed.Load() {
		return nil, ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db.ops.Scans.Add(1)
	db.mu.Lock()
	mem, imm, snap := db.snapshotLocked()
	db.mu.Unlock()
	return db.scanFrom(ctx, mem, imm, snap, low, high)
}

// NewIterator streams a pinned snapshot after one short critical section.
func (db *RocksDB) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if db.closed.Load() {
		return nil, ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db.ops.Iterators.Add(1)
	db.mu.Lock()
	mem, imm, snap := db.snapshotLocked()
	db.mu.Unlock()
	return db.newSnapshotIter(ctx, mem, imm, nil, snap, low, high, nil)
}

// Snapshot pins a repeatable-read view after one short critical section —
// the shape of RocksDB's GetSnapshot — behind the snapshot barrier (no
// insert with seq <= the bound is still in flight).
func (db *RocksDB) Snapshot(ctx context.Context) (kv.View, error) {
	if db.closed.Load() {
		return nil, ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db.snapMu.Lock()
	db.mu.Lock()
	mem, imm, snap := db.snapshotLocked()
	db.mu.Unlock()
	db.snapMu.Unlock()
	return db.newSnapshot(mem, imm, snap), nil
}

// Apply commits the batch atomically with one critical section — the shape
// of RocksDB's WriteBatch, whose group commit this models.
func (db *RocksDB) Apply(ctx context.Context, b *kv.Batch, opts ...kv.WriteOption) error {
	return db.applyBatch(ctx, b, opts)
}

// Close flushes and shuts down.
func (db *RocksDB) Close() error { return db.closeCommon() }

var _ kv.Store = (*RocksDB)(nil)
