package baseline

import (
	"context"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/wal"
)

// HyperLevelDB models HyperDex's LevelDB fork (§2.2, §6): it "replaces
// LevelDB's sequential memory component with a concurrent one, which
// allows writers to apply their updates in parallel", but "writers still
// need to acquire a global mutex lock at the start and end of each
// operation" to order updates through version numbers. That residual
// global lock is its scalability ceiling in Figs 9–13.
type HyperLevelDB struct {
	base
}

// NewHyperLevelDB opens a HyperLevelDB-style store.
func NewHyperLevelDB(cfg Config) (*HyperLevelDB, error) {
	if cfg.Storage.CompactionThreads == 0 {
		cfg.Storage.CompactionThreads = 1
	}
	db := &HyperLevelDB{}
	if err := db.init(cfg); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *HyperLevelDB) write(ctx context.Context, kind keys.Kind, key, value []byte, opts []kv.WriteOption) error {
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
	// Critical section #1: room check, version-number (seq) allocation,
	// commit-log append. The snapshot barrier spans allocation through
	// insert so a Snapshot never pins a sequence still in flight.
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
	db.mu.Unlock()

	// The insert itself proceeds in parallel with other writers.
	h.mem.Insert(key, seq, kind, value)
	h.inserting.Done()
	db.snapMu.RUnlock()

	// Critical section #2: post-insert bookkeeping (size trigger).
	db.mu.Lock()
	db.maybeScheduleFlushLocked()
	db.mu.Unlock()
	// The fsync wait of a Sync-class write runs outside every lock:
	// concurrent committers coalesce in the WAL's group-commit queue
	// rather than serializing the global mutex behind the disk.
	if d == kv.DurabilitySync {
		return db.commitSync(w, off)
	}
	return nil
}

// Put inserts concurrently between two global critical sections.
func (db *HyperLevelDB) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	db.ops.Puts.Add(1)
	return db.write(ctx, keys.KindSet, key, value, opts)
}

// Delete writes a tombstone version.
func (db *HyperLevelDB) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	db.ops.Deletes.Add(1)
	return db.write(ctx, keys.KindDelete, key, nil, opts)
}

// Get retains LevelDB's read-side critical sections.
func (db *HyperLevelDB) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
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
	db.mu.Lock()
	db.mu.Unlock()
	if err != nil || !ok {
		return nil, false, err
	}
	return keys.Clone(v), true, nil
}

// Scan produces a snapshot scan ("HyperLevelDB's efficient compaction"
// keeps its file count low, which is why it does well in Fig 13 — that
// property comes from the shared disk component here).
func (db *HyperLevelDB) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
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
	pairs, err := db.scanFrom(ctx, mem, imm, snap, low, high)
	db.mu.Lock()
	db.mu.Unlock()
	return pairs, err
}

// NewIterator streams a pinned snapshot with LevelDB-style start and end
// critical sections.
func (db *HyperLevelDB) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
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
	return db.newSnapshotIter(ctx, mem, imm, nil, snap, low, high, func() {
		db.mu.Lock()
		db.mu.Unlock()
	})
}

// Snapshot pins a repeatable-read view captured under the global mutex,
// behind the snapshot barrier (no insert with seq <= the bound is still
// in flight).
func (db *HyperLevelDB) Snapshot(ctx context.Context) (kv.View, error) {
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

// Apply commits the batch atomically: version numbers for the whole batch
// are allocated in one critical section.
func (db *HyperLevelDB) Apply(ctx context.Context, b *kv.Batch, opts ...kv.WriteOption) error {
	return db.applyBatch(ctx, b, opts)
}

// Close flushes and shuts down.
func (db *HyperLevelDB) Close() error { return db.closeCommon() }

var _ kv.Store = (*HyperLevelDB)(nil)
