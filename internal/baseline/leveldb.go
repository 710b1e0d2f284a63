package baseline

import (
	"context"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/storage"
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
	writeCh chan *writeReq
}

type writeReq struct {
	kind       keys.Kind
	key        []byte
	value      []byte
	durability kv.Durability
	done       chan error
}

// writeLeaderBatch bounds how many queued writes one leader pass applies.
const writeLeaderBatch = 128

// NewLevelDB opens a LevelDB-style store.
func NewLevelDB(cfg Config) (*LevelDB, error) {
	if cfg.Storage.CompactionThreads == 0 {
		cfg.Storage.CompactionThreads = 1
	}
	db := &LevelDB{writeCh: make(chan *writeReq, 4096)}
	// A batch is applied under the global mutex — the same single-writer
	// application the leader performs for combined queues — and a
	// Snapshot is captured under it like every LevelDB read.
	err := db.init(cfg, policy{
		write:    db.write,
		apply:    db.applyLocked,
		view:     db.muView,
		snapView: db.muView,
		endRead:  db.muSection,
	})
	if err != nil {
		return nil, err
	}
	// The leader is background work like the flush loop: Close stops it
	// before the final flush, so no queued write lands after it.
	db.wg.Add(1)
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
	defer db.wg.Done()
	var batch []*writeReq
	var pending []*pendingSync
	for {
		select {
		case <-db.closing:
			// Serve stragglers so Put never hangs on shutdown.
			for {
				select {
				case req := <-db.writeCh:
					req.done <- storage.ErrClosed
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
			// The leader waits for room on behalf of the whole pass: its
			// waits are one stall, noted once the pass is applied.
			var st storage.Stall
			db.mu.Lock()
			for _, r := range batch {
				err := db.waitRoomLocked(context.Background(), &st)
				var w *wal.Writer
				var off int64
				if err == nil {
					w, off, err = db.insertLocked(r.kind, r.key, r.value, r.durability)
				}
				if err == nil && r.durability == kv.DurabilitySync && w != nil {
					pending = append(pending, &pendingSync{req: r, w: w, off: off})
					continue // acked after the shared barrier
				}
				r.done <- err
			}
			db.mu.Unlock()
			db.NoteStall(&st)
			// One barrier per segment the pass touched (normally one; a
			// memtable switch mid-pass adds a second). CommitSync's fast
			// path makes the later laps free.
			for _, p := range pending {
				sealed, _ := db.logs()
				p.req.done <- storage.CommitSync(sealed, p.w, p.off)
			}
		}
	}
}

// write queues the update for the write leader. The leader acknowledges
// a Sync-class write only after its pass's shared barrier, so no commit
// record is left for base to wait on.
func (db *LevelDB) write(ctx context.Context, kind keys.Kind, key, value []byte, d kv.Durability) (*wal.Writer, int64, error) {
	req := &writeReq{kind: kind, key: key, value: value, durability: d, done: make(chan error, 1)}
	select {
	case db.writeCh <- req:
	case <-db.closing:
		return nil, 0, storage.ErrClosed
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	// Cancellation here abandons the wait, not the write: the leader may
	// still apply the queued update. Context errors mean "the caller
	// stopped waiting", never "the operation did not happen".
	select {
	case err := <-req.done:
		return nil, 0, err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

var _ kv.Store = (*LevelDB)(nil)
