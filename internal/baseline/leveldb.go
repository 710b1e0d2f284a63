package baseline

import (
	"context"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/wal"
)

// LevelDB models Google's LevelDB concurrency design (§2.2):
//
//   - Writers do not touch the memtable themselves: they "deposit their
//     intended writes in a concurrent queue; the writes in this queue are
//     applied to the key-value store one by one by a single thread" — the
//     write leader, which combines queued updates per mutex acquisition
//     (flat combining [28]).
//   - Readers "take a global lock during each operation so as to access or
//     update metadata": one critical section at the start and one at the
//     end of every Get and Scan.
//   - Compaction is single-threaded.
type LevelDB struct {
	base
	writeCh  chan *writeReq
	writerWg chanWaiter
}

type writeReq struct {
	kind       keys.Kind
	key        []byte
	value      []byte
	durability kv.Durability
	done       chan error
}

// chanWaiter is a tiny one-goroutine waitgroup (avoids embedding another
// sync.WaitGroup next to base.wg).
type chanWaiter struct{ ch chan struct{} }

func (w *chanWaiter) start() { w.ch = make(chan struct{}) }
func (w *chanWaiter) done()  { close(w.ch) }
func (w *chanWaiter) wait()  { <-w.ch }

// writeLeaderBatch bounds how many queued writes one leader pass applies.
const writeLeaderBatch = 128

// NewLevelDB opens a LevelDB-style store.
func NewLevelDB(cfg Config) (*LevelDB, error) {
	if cfg.Storage.CompactionThreads == 0 {
		cfg.Storage.CompactionThreads = 1
	}
	db := &LevelDB{writeCh: make(chan *writeReq, 4096)}
	if err := db.init(cfg); err != nil {
		return nil, err
	}
	db.writerWg.start()
	go db.writeLeader()
	return db, nil
}

// pendingSync is a combined-pass write awaiting its group-committed
// fsync: the leader acks it only after the barrier covers its record.
type pendingSync struct {
	req *writeReq
	w   *wal.Writer
	off int64
}

// writeLeader drains the queue, applying writes sequentially under the
// global mutex — the single-writer bottleneck of Fig 9. Sync-class writes
// get LevelDB's natural group commit: the whole combined pass shares ONE
// fsync, issued after the mutex is released, and only then are the
// sync writers acknowledged (buffered writers were acked under the lock).
func (db *LevelDB) writeLeader() {
	defer db.writerWg.done()
	var batch []*writeReq
	var pending []*pendingSync
	for {
		select {
		case <-db.closing:
			// Serve stragglers so Put never hangs on shutdown.
			for {
				select {
				case req := <-db.writeCh:
					req.done <- ErrClosedBaseline
				default:
					return
				}
			}
		case req := <-db.writeCh:
			batch = append(batch[:0], req)
			// Combine whatever else is queued right now.
		drain:
			for len(batch) < writeLeaderBatch {
				select {
				case r := <-db.writeCh:
					batch = append(batch, r)
				default:
					break drain
				}
			}
			pending = pending[:0]
			db.mu.Lock()
			for _, r := range batch {
				err := db.waitRoomLocked()
				var w *wal.Writer
				var off int64
				if err == nil {
					w, off, err = db.insertLocked(r.kind, r.key, r.value, r.durability != kv.DurabilityNone)
				}
				if err == nil && r.durability == kv.DurabilitySync && w != nil {
					pending = append(pending, &pendingSync{req: r, w: w, off: off})
					continue // acked after the shared barrier
				}
				r.done <- err
			}
			db.mu.Unlock()
			// One barrier per segment the pass touched (normally one; a
			// memtable switch mid-pass adds a second). commitSync's fast
			// path makes the later laps free.
			for _, p := range pending {
				p.req.done <- db.commitSync(p.w, p.off)
			}
		}
	}
}

func (db *LevelDB) write(ctx context.Context, kind keys.Kind, key, value []byte, opts []kv.WriteOption) error {
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
	req := &writeReq{kind: kind, key: key, value: value, durability: d, done: make(chan error, 1)}
	select {
	case db.writeCh <- req:
	case <-db.closing:
		return ErrClosedBaseline
	case <-ctx.Done():
		return ctx.Err()
	}
	// Cancellation here abandons the wait, not the write: the leader may
	// still apply the queued update. Context errors mean "the caller
	// stopped waiting", never "the operation did not happen".
	select {
	case err := <-req.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Put queues the update for the write leader.
func (db *LevelDB) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	db.ops.Puts.Add(1)
	return db.write(ctx, keys.KindSet, key, value, opts)
}

// Delete queues a tombstone.
func (db *LevelDB) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	db.ops.Deletes.Add(1)
	return db.write(ctx, keys.KindDelete, key, nil, opts)
}

// Get takes the global mutex at the start (to capture the view) and again
// at the end (LevelDB releases its memtable/version references under the
// lock) — the read-side critical sections of §2.2.
func (db *LevelDB) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
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
	db.mu.Lock() // the "end" critical section: unref metadata
	db.mu.Unlock()
	if err != nil || !ok {
		return nil, false, err
	}
	return keys.Clone(v), true, nil
}

// Scan produces a snapshot scan with the same two critical sections.
func (db *LevelDB) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
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

// NewIterator streams a pinned snapshot; the closing critical section
// (releasing metadata under the global lock) runs at Close.
func (db *LevelDB) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
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

// Snapshot pins a repeatable-read view, captured under the global mutex
// like every LevelDB read.
func (db *LevelDB) Snapshot(ctx context.Context) (kv.View, error) {
	if db.closed.Load() {
		return nil, ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	mem, imm, snap := db.snapshotLocked()
	db.mu.Unlock()
	return db.newSnapshot(mem, imm, snap), nil
}

// Apply commits the batch atomically under the global mutex — the same
// single-writer application the leader performs for combined queues.
func (db *LevelDB) Apply(ctx context.Context, b *kv.Batch, opts ...kv.WriteOption) error {
	return db.applyBatch(ctx, b, opts)
}

// Close shuts down the leader and flushes.
func (db *LevelDB) Close() error {
	if db.closed.Load() {
		return nil
	}
	err := db.closeCommon() // closes db.closing, stopping the leader
	db.writerWg.wait()
	return err
}

var _ kv.Store = (*LevelDB)(nil)
