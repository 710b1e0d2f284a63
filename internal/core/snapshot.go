package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/skiplist"
	"flodb/internal/storage"
)

// ErrSnapshotReleased is returned by reads on a Closed snapshot. It wraps
// kv.ErrSnapshotReleased.
var ErrSnapshotReleased = fmt.Errorf("flodb: %w", kv.ErrSnapshotReleased)

// view is what a sequence-bounded read resolves against: the bound, the
// Memtable that was live when it was drawn (read through its version
// chains at the bound), the sealed-but-unflushed Memtable if a flush was
// in flight, and a pinned disk Version. A view value stands for one
// reference on the bound and one on the Version; retain and release move
// that count.
type view struct {
	seq  uint64
	live *skiplist.List
	imm  *skiplist.List   // nil when no flush was in flight
	ver  *storage.Version // nil without a disk component
}

// pinView takes a point-in-time view of the store, in O(resident
// Membuffer entries) and with no disk I/O. It is the open path of every
// range read: Scan, NewIterator and Snapshot.
//
// Design note — how a single-versioned memory component serves
// repeatable reads. The paper's memory levels deliberately update in
// place (§3.2): the Membuffer overwrites hash slots and the Memtable
// swaps skiplist entries, so the version a reader needs is destroyed by
// the very next write of the same key. Algorithm 3 answers with
// restart-on-conflict and a writer-blocking fallback (§4.4). This store
// departs from it: pinView performs Algorithm 3's seal (lines 4–11, swap
// in an empty Membuffer, RCU-wait, drain the old one into the live
// Memtable — memory-to-memory, proportional to what the Membuffer holds),
// and its bound B is the seal point: every pre-seal write has seq <= B and
// sits, once sealMembuffer returns, in the live Memtable, the
// sealed-but-unflushed Memtable, or sstables; every later write draws
// seq > B. The bound is registered with the skiplists' Retention inside
// the seal, before writers resume, which switches updates from destructive
// swaps to version chaining (skiplist.Entry.PrevVersion) for exactly the
// versions active bounds still need — at most one retained version per
// open reader per hot key. The drain runs after writers resume, so a
// drained copy can arrive after a newer write of its key: the Memtable's
// sequence-ordered insert chains it beneath that write, where B finds it.
// Reads then resolve the live Memtable at B, fall through to the sealed
// Memtable and the pinned disk Version (filtered at seq <= B), and
// releasing the view unregisters the bound so chains collapse back to
// single versions on the next overwrite. Nothing restarts, and no writer
// is blocked past the seal's grace period. The memory component stays
// single-versioned whenever no reader is open; readers pay only for the
// keys overwritten while they live.
func (db *DB) pinView() view {
	db.drainMu.Lock()
	// The Membuffer is unsequenced, so it cannot be bounded in place: seal
	// and drain it into the live Memtable first. The bound is registered
	// before writers resume, so the first post-B overwrite of any key
	// already chains the displaced pre-B version.
	var v view
	old, _ := db.sealMembuffer(nil, func(seal uint64) {
		v.seq = seal
		db.registerBound(seal)
	})
	v.live = old.mtb.list

	// Capture the sealed-but-unflushed Memtable BEFORE pinning the disk
	// version. persistCycle's flush order (flush → install version →
	// synchronize → clear immMtb) guarantees that if the load returns nil
	// the data is already in the version we pin next; if it returns the
	// memtable, the captured list plus the pinned version together cover
	// everything (the merge dedups any overlap).
	if m := db.immMtb.Load(); m != nil && m != old.mtb {
		v.imm = m.list
	}
	if db.store != nil {
		v.ver = db.store.PinVersion()
	}

	db.drainMu.Unlock()
	return v
}

// retainView takes one more reference on v's bound and Version.
func (db *DB) retainView(v view) {
	db.registerBound(v.seq)
	if v.ver != nil {
		db.store.AcquireVersion(v.ver)
	}
}

// releaseView drops one reference: the last one on a bound lets its
// version chains collapse, the last one on a Version lets compaction
// delete the files only it still needed.
func (db *DB) releaseView(v view) {
	db.unregisterBound(v.seq)
	if v.ver != nil {
		db.store.ReleaseVersion(v.ver)
	}
}

// Snapshot returns a read-only view pinned at the current state: a
// pinView whose references live until the handle's Close. The O(1)-disk
// design is described at pinView.
func (db *DB) Snapshot(ctx context.Context) (kv.View, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if db.store == nil {
		return nil, fmt.Errorf("flodb: snapshot without a disk component: %w", kv.ErrNotSupported)
	}
	if err := db.loadPersistErr(); err != nil {
		return nil, err
	}
	db.stats.snapshots.Add(1)
	start := time.Now()
	v := db.pinView()
	d := time.Since(start)
	db.stats.snapLat.Observe(d)
	db.events.Emit(obs.Event{Type: obs.EventSnapshotPin, Dur: d, Detail: fmt.Sprintf("seq bound %d", v.seq)})
	return &snapshot{db: db, view: v}, nil
}

// snapshot is a long-lived handle on a view.
type snapshot struct {
	db *DB
	view
	closed atomic.Bool
}

var _ kv.View = (*snapshot)(nil)

func (s *snapshot) check(ctx context.Context) error {
	if s.closed.Load() {
		return ErrSnapshotReleased
	}
	if s.db.closed.Load() {
		return ErrClosed
	}
	return ctx.Err()
}

// Get returns the value key had at the snapshot point. The returned slice
// is a copy.
func (s *snapshot) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if err := s.check(ctx); err != nil {
		return nil, false, err
	}
	// Freshness order: live memtable (every entry there postdates the
	// sealed one), then the sealed memtable, then disk. Each level serves
	// the newest version <= bound or passes.
	for _, l := range [...]*skiplist.List{s.live, s.imm} {
		if l == nil {
			continue
		}
		if e, ok := l.GetAt(key, s.seq); ok {
			if e.Tombstone {
				return nil, false, nil
			}
			return keys.Clone(e.Value), true, nil
		}
	}
	v, _, kind, ok, err := s.db.store.GetAt(s.ver, key, s.seq)
	if err != nil {
		return nil, false, err
	}
	if !ok || kind == keys.KindDelete {
		return nil, false, nil
	}
	return keys.Clone(v), true, nil
}

// Scan materializes all pairs with low <= key < high at the snapshot
// point.
func (s *snapshot) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	it, err := s.NewIterator(ctx, low, high)
	if err != nil {
		return nil, err
	}
	return kv.Collect(it)
}

// NewIterator streams the snapshot's range. The iterator holds its own
// references on the bound and the Version, so it stays valid (and its
// versions stay retained) even if the snapshot handle is Closed
// mid-iteration.
func (s *snapshot) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	db := s.db
	// The references are taken BEFORE the closed check: if it passed, the
	// handle's own references were still held at that moment, so neither
	// count touched zero and no chain or file the iterator needs is gone.
	db.retainView(s.view)
	if err := s.check(ctx); err != nil {
		db.releaseView(s.view)
		return nil, err
	}
	db.stats.iterators.Add(1)
	return db.openIter(ctx, low, high, s.view)
}

// Close releases the snapshot's references (retained version chains
// collapse on subsequent overwrites). Reads after Close return
// ErrSnapshotReleased; iterators already created hold their own
// references and stay valid. Close is idempotent.
func (s *snapshot) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.db.releaseView(s.view)
	s.db.events.Emit(obs.Event{Type: obs.EventSnapshotUnpin, Detail: fmt.Sprintf("seq bound %d", s.seq)})
	return nil
}
