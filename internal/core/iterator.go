package core

import (
	"context"

	"flodb/internal/kv"
	"flodb/internal/storage"
)

// NewIterator returns a streaming cursor over low <= key < high (nil
// bounds are open). The range is never materialized: pairs are read
// straight out of the Memtables and each sstable source's read window as
// the cursor moves, so iterating a range larger than the memory component
// costs O(1) memory, and Key and Value alias that memory — they are valid
// until the cursor moves. What an iterator reads from disk never enters
// the read cache (Gets fill it, with rows), nor is it looked for there.
//
// Consistency: the iterator is ONE point-in-time view for its whole
// lifetime, taken by pinView when it opens — every pair it returns was
// current at that single moment, whatever is written, drained or persisted
// while it is open. Opening costs a Membuffer seal (time proportional to
// the entries resident in the Membuffer), which pauses slow-path writers
// only for its grace period; nothing restarts and no writer is blocked
// while the cursor streams. In exchange an OPEN iterator pins the
// sstables of the Version it read from (compaction cannot delete them)
// and keeps the versions its bound needs chained beneath later
// overwrites, until Close: close iterators promptly, and bound abandoned
// ones the way the server's lease janitor does.
//
// The context is captured by the iterator: every positioning call checks
// it, so a canceled or expired context stops iteration promptly with the
// context error in Err.
func (db *DB) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db.stats.iterators.Add(1)
	return db.openIter(ctx, low, high, db.pinView())
}

// iterFrame is everything an open iterator needs besides its view: the
// bound-resolving Memtable cursors, the merge over them and the disk runs,
// and the snapshot filter on top. Frames are recycled through
// db.iterFrames, so opening an iterator allocates its handle and nothing
// in proportion to the number of sources.
type iterFrame struct {
	snap      storage.SnapshotIter
	merge     storage.VersionIter
	live, imm boundListIter
	mem       [2]storage.InternalIterator
}

// iterator is the handle NewIterator returns. It is deliberately NOT
// recycled with its frame: a second Close, or any call after Close, must
// find a dead handle rather than somebody else's live frame.
type iterator struct {
	db  *DB
	f   *iterFrame // nil once closed
	v   view
	err error // what Err reported at Close
}

var _ kv.Iterator = (*iterator)(nil)

// openIter streams v over [low, high). It consumes one reference on v,
// released by the iterator's Close (or here, on failure).
func (db *DB) openIter(ctx context.Context, low, high []byte, v view) (kv.Iterator, error) {
	f, _ := db.iterFrames.Get().(*iterFrame)
	if f == nil {
		f = new(iterFrame)
	}
	f.live.reset(v.live, v.seq)
	mem := append(f.mem[:0], &f.live)
	if v.imm != nil {
		f.imm.reset(v.imm, v.seq)
		mem = append(mem, &f.imm)
	}
	if err := f.merge.Init(mem, db.store, v.ver); err != nil {
		db.recycle(f)
		db.releaseView(v)
		return nil, err
	}
	f.snap.Reset(ctx, f.merge.Merged(), storage.SnapshotIterOptions{Low: low, High: high, MaxSeq: v.seq})
	return &iterator{db: db, f: f, v: v}, nil
}

// recycle clears every reference f holds — a pooled frame must not keep a
// Memtable, a table or a caller's context alive — and pools it.
func (db *DB) recycle(f *iterFrame) {
	f.snap.Reset(nil, nil, storage.SnapshotIterOptions{})
	f.merge.Release()
	f.live.reset(nil, 0)
	f.imm.reset(nil, 0)
	f.mem = [2]storage.InternalIterator{}
	db.iterFrames.Put(f)
}

func (it *iterator) First() bool { return it.f != nil && it.f.snap.First() }

func (it *iterator) Seek(key []byte) bool { return it.f != nil && it.f.snap.Seek(key) }

func (it *iterator) Next() bool { return it.f != nil && it.f.snap.Next() }

// Key returns the current key; the slice aliases store memory and is valid
// until the cursor moves.
func (it *iterator) Key() []byte {
	if it.f == nil {
		return nil
	}
	return it.f.snap.Key()
}

// Value returns the current value, under the same aliasing rule as Key.
func (it *iterator) Value() []byte {
	if it.f == nil {
		return nil
	}
	return it.f.snap.Value()
}

// Err returns the first error the iterator encountered. It survives Close.
func (it *iterator) Err() error {
	if it.f == nil {
		return it.err
	}
	return it.f.snap.Err()
}

// Close releases the view's references — table pins, the disk Version,
// the sequence bound — and recycles the frame. It is idempotent.
func (it *iterator) Close() error {
	if it.f == nil {
		return nil
	}
	it.err = it.f.snap.Err()
	it.db.recycle(it.f)
	it.f = nil
	it.db.releaseView(it.v)
	return nil
}
