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
	// Reads keep LevelDB's start and end critical sections ("HyperLevelDB's
	// efficient compaction" keeps its file count low, which is why it does
	// well in Fig 13 — that property comes from the shared disk component
	// here). A batch's version numbers are allocated in one critical
	// section. A pinned view (Scan, iterator, Snapshot) captures behind
	// the snapshot barrier.
	err := db.init(cfg, policy{
		write:   db.write,
		apply:   db.applyLocked,
		view:    db.muView,
		pinView: db.barrierView,
		endRead: db.muSection,
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// write inserts concurrently between two global critical sections.
func (db *HyperLevelDB) write(ctx context.Context, kind keys.Kind, key, value []byte, d kv.Durability) (*wal.Writer, int64, error) {
	// Critical section #1: room check, version-number (seq) allocation,
	// commit-log append. The snapshot barrier spans allocation through
	// insert so a pinned view never covers a sequence still in flight.
	db.snapMu.RLock()
	db.mu.Lock()
	h, seq, w, off, err := db.reserveLocked(ctx, kind, key, value, d)
	db.mu.Unlock()
	if err != nil {
		db.snapMu.RUnlock()
		return nil, 0, err
	}

	// The insert itself proceeds in parallel with other writers.
	h.mem.Insert(key, seq, kind, value)
	h.inserting.Done()
	db.snapMu.RUnlock()

	// Critical section #2: post-insert bookkeeping (size trigger).
	db.mu.Lock()
	db.maybeScheduleFlushLocked()
	db.mu.Unlock()
	return w, off, nil
}

var _ kv.Store = (*HyperLevelDB)(nil)
