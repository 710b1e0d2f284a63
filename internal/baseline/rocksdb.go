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
	// A read takes one short critical section to capture its view
	// ("caching metadata locally reduces synchronized accesses", §6), then
	// reads without the lock — the concurrency that lets RocksDB scale
	// reads in Fig 10. A batch commits in one critical section, the shape
	// of RocksDB's WriteBatch. A pinned view (Scan, iterator, Snapshot)
	// captures behind the snapshot barrier, the shape of RocksDB's
	// GetSnapshot.
	err := db.init(cfg, policy{
		write:   db.write,
		apply:   db.applyLocked,
		view:    db.muView,
		pinView: db.barrierView,
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// write inserts with one short global critical section: room check, seq,
// log, size trigger. The snapshot barrier spans allocation through insert
// so a pinned view never covers a sequence still in flight.
func (db *RocksDB) write(ctx context.Context, kind keys.Kind, key, value []byte, d kv.Durability) (*wal.Writer, int64, error) {
	db.snapMu.RLock()
	db.mu.Lock()
	h, seq, w, off, err := db.reserveLocked(ctx, kind, key, value, d)
	if err == nil {
		db.maybeScheduleFlushLocked()
	}
	db.mu.Unlock()
	if err != nil {
		db.snapMu.RUnlock()
		return nil, 0, err
	}

	h.mem.Insert(key, seq, kind, value)
	h.inserting.Done()
	db.snapMu.RUnlock()
	return w, off, nil
}

var _ kv.Store = (*RocksDB)(nil)
