// Package baseline implements the four LSM systems the paper evaluates
// FloDB against — LevelDB, HyperLevelDB, RocksDB, and RocksDB/cLSM — as
// memory-component concurrency-control variants over the same disk
// component (internal/storage). The paper's systems all derive from
// LevelDB and share its disk format, so holding the disk constant isolates
// exactly the axis the paper studies (§2.2).
//
// Policy and mechanism live apart. The kv.Store calls are the
// storage.Front every engine shares, FloDB included: the closed and
// context checks, the background error, durability, the op counters and
// latencies, the Sync-class commit and the read handles. base (base.go)
// is the engine behind it: memtables, flushes and shutdown.
// Each variant's file holds only its policy, the row of README's
// six-system table: how it orders a write and a batch, how a reader
// captures (mem, imm, seq), whether a read ends with a critical section,
// and how Snapshot excludes in-flight inserts. Two lifecycles are
// internal/storage's too: the WAL segments' (replay, commit sync,
// retirement, close and crash) and the read view's (the bounded Get, and
// the iterator and snapshot handles over a captured view, to which skipMem
// supplies its Get and Cursor).
//
// All four keep LevelDB's multi-versioned memtable: every update appends a
// new (key, seq) version and old versions are discarded only during
// compaction. This is the behaviour §3.2 contrasts with FloDB's in-place
// updates — "continually updating a single key is enough to fill up the
// memory component and trigger frequent flushes to disk" — and it is what
// drives the skew results of Fig 16.
package baseline

import (
	"flodb/internal/keys"
	"flodb/internal/skiplist"
	"flodb/internal/storage"
)

// skipMem is a multi-versioned memtable: it stores internal keys in the
// shared lock-free skiplist. Each version is a distinct internal key, so
// inserts never collide.
type skipMem struct {
	list *skiplist.List
}

func newSkipMem() *skipMem {
	return &skipMem{list: skiplist.NewWithComparator(func(a, b []byte) int {
		return keys.CompareInternal(keys.InternalKey(a), keys.InternalKey(b))
	})}
}

// Insert appends a version. (key, seq) pairs are unique.
func (m *skipMem) Insert(ukey []byte, seq uint64, kind keys.Kind, value []byte) {
	// MakeInternal copies the key; the value must be copied here — the
	// node retains it, and harness drivers reuse their value buffers.
	ik := keys.MakeInternal(ukey, seq, kind)
	m.list.Insert(ik, &skiplist.Entry{Value: keys.Clone(value), Seq: seq, Tombstone: kind == keys.KindDelete})
}

// Get returns the newest version with seq <= snapshot.
func (m *skipMem) Get(ukey []byte, snapshot uint64) ([]byte, uint64, keys.Kind, bool) {
	it := m.list.NewIterator()
	it.Seek(keys.SeekInternal(ukey, snapshot))
	if !it.Valid() {
		return nil, 0, 0, false
	}
	ik := keys.InternalKey(it.Key())
	if !keys.Equal(ik.UserKey(), ukey) {
		return nil, 0, 0, false
	}
	e := it.Entry()
	return e.Value, ik.Seq(), ik.Kind(), true
}

// ApproxBytes approximates memory usage including superseded versions.
func (m *skipMem) ApproxBytes() int64 { return m.list.ApproxBytes() }

// Len counts stored versions.
func (m *skipMem) Len() int { return m.list.Len() }

// Cursor walks every version in (ukey asc, seq desc) order
// (storage.MemLevel); versions above bound are the view's to skip. It
// re-aims reuse when that is one of ours.
func (m *skipMem) Cursor(reuse storage.MemCursor, _ uint64) storage.MemCursor {
	c, _ := reuse.(*skipMemIter)
	if c == nil {
		c = new(skipMemIter)
	}
	c.it.Reset(m.list)
	return c
}

// NewIterator yields every version, for a flush (and is
// storage.ReplayMem's).
func (m *skipMem) NewIterator() storage.InternalIterator { return m.Cursor(nil, keys.MaxSeq) }

// skipMemIter decodes internal keys into the InternalIterator contract.
type skipMemIter struct {
	it skiplist.Iterator
}

func (a *skipMemIter) SeekToFirst() { a.it.SeekToFirst() }
func (a *skipMemIter) Seek(ukey []byte) {
	a.it.Seek(keys.SeekInternal(ukey, keys.MaxSeq))
}
func (a *skipMemIter) Next()       { a.it.Next() }
func (a *skipMemIter) Valid() bool { return a.it.Valid() }
func (a *skipMemIter) Key() []byte {
	return keys.InternalKey(a.it.Key()).UserKey()
}
func (a *skipMemIter) Seq() uint64 {
	return keys.InternalKey(a.it.Key()).Seq()
}
func (a *skipMemIter) Kind() keys.Kind {
	return keys.InternalKey(a.it.Key()).Kind()
}
func (a *skipMemIter) Value() []byte { return a.it.Entry().Value }
func (a *skipMemIter) Err() error    { return nil }
func (a *skipMemIter) Release()      { a.it.Reset(nil) }

var _ storage.MemLevel = (*skipMem)(nil)
