package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"flodb/internal/keys"
	"flodb/internal/skiplist"
	"flodb/internal/storage"
	"flodb/internal/wal"
)

// memtable bundles the sorted in-memory level (§3.1's Memtable: a
// concurrent skiplist with per-entry sequence numbers and in-place
// updates) with the WAL segment that logs its generation, and with a
// negative filter over the list: a Get for a key the generation never saw —
// on a store larger than memory, nearly every Get — costs one word load
// here instead of a skiplist descent that finds nothing.
type memtable struct {
	list *skiplist.List
	// filter is a one-word-per-key Bloom filter: a key's hash picks a word
	// and three bits in it. insert and multiInsert, the only ways into the
	// list, set the bits BEFORE the list insert, so whoever can find a key
	// in the list — or was told its write completed — finds its bits set;
	// bits are never cleared. Sized once, from the generation's byte target.
	filter []atomic.Uint64
	wal    *wal.Writer // nil without a disk component (DropPersist)
	walNum uint64
}

// filterBytesPerWord sizes the filter: one 64-bit word per this many bytes
// of Memtable target (384 KiB for 24 MiB). An entry costs the skiplist well
// over 100 bytes, so a full generation puts at most ~3 keys in a word and
// under 1% of absent keys pass.
const filterBytesPerWord = 512

func newMemtableList(targetBytes int64) *memtable {
	return &memtable{
		list:   skiplist.New(),
		filter: make([]atomic.Uint64, max(1, targetBytes/filterBytesPerWord)),
	}
}

// filterSlot returns the word and the bits of the key whose keys.Hash is h:
// the word from the hash's high bits, the bits from its low 18.
func (m *memtable) filterSlot(h uint64) (*atomic.Uint64, uint64) {
	w, _ := bits.Mul64(h, uint64(len(m.filter)))
	return &m.filter[w], 1<<(h&63) | 1<<(h>>6&63) | 1<<(h>>12&63)
}

// mark sets the filter bits of the key whose keys.Hash is h. A hot key's
// are set already: test before the read-modify-write, and leave its cache
// line shared.
func (m *memtable) mark(h uint64) {
	if w, mask := m.filterSlot(h); w.Load()&mask != mask {
		w.Or(mask)
	}
}

// insert is list.Insert behind the filter; h is key's keys.Hash.
func (m *memtable) insert(key []byte, h uint64, e *skiplist.Entry) {
	m.mark(h)
	m.list.Insert(key, e)
}

// multiInsert is list.MultiInsert behind the filter.
func (m *memtable) multiInsert(batch []skiplist.KV) {
	for i := range batch {
		m.mark(keys.Hash(batch[i].Key))
	}
	m.list.MultiInsert(batch)
}

// approxBytes is what the generation holds: the list, and the filter it
// carries whether the list is empty or full.
func (m *memtable) approxBytes() int64 {
	return m.list.ApproxBytes() + int64(8*len(m.filter))
}

// get returns the entry for key, whose keys.Hash is h.
func (m *memtable) get(key []byte, h uint64) (*skiplist.Entry, bool) {
	if w, mask := m.filterSlot(h); w.Load()&mask != mask {
		return nil, false
	}
	return m.list.Get(key)
}

// log returns the generation's WAL segment: nil for a nil memtable or
// without a disk component.
func (m *memtable) log() *wal.Writer {
	if m == nil {
		return nil
	}
	return m.wal
}

// Insert is insert for WAL replay (storage.ReplayMem): it builds the
// entry from the replayed op, cloning the value the replay buffer holds.
func (m *memtable) Insert(key []byte, seq uint64, kind keys.Kind, value []byte) {
	e := &skiplist.Entry{Value: keys.Clone(value), Seq: seq, Tombstone: kind == keys.KindDelete}
	m.insert(key, keys.Hash(key), e)
}

// Get is a read view's lookup (storage.MemLevel): the newest version of
// key with Seq <= bound, resolved through its version chain. The live
// point read is get, which the filter fronts.
func (m *memtable) Get(key []byte, bound uint64) ([]byte, uint64, keys.Kind, bool) {
	e, ok := m.list.GetAt(key, bound)
	if !ok {
		return nil, 0, 0, false
	}
	return e.Value, e.Seq, entryKind(e), true
}

// Cursor is a read view's cursor over the generation at bound
// (storage.MemLevel); it re-aims reuse when that is one of ours.
func (m *memtable) Cursor(reuse storage.MemCursor, bound uint64) storage.MemCursor {
	c, _ := reuse.(*boundListIter)
	if c == nil {
		c = new(boundListIter)
	}
	c.reset(m.list, bound)
	return c
}

// NewIterator yields the generation's newest entries for an L0 flush (and
// is storage.ReplayMem's): the bound cursor with no bound. FloDB
// memtables hold unique user keys, so the (key asc, seq desc) contract
// holds trivially.
func (m *memtable) NewIterator() storage.InternalIterator {
	return m.Cursor(nil, math.MaxUint64)
}

func entryKind(e *skiplist.Entry) keys.Kind {
	if e.Tombstone {
		return keys.KindDelete
	}
	return keys.KindSet
}

// boundListIter iterates a skiplist at a snapshot bound: each visited
// node's version chain is resolved to the newest version with
// Seq <= maxSeq, and nodes with no such version (created after the
// bound) are skipped. This is what lets an O(1) snapshot iterate the
// LIVE memtable while writers keep updating it in place — the retained
// chain (skiplist.Retention) guarantees the resolved version survives
// however many overwrites land after the bound.
type boundListIter struct {
	it     skiplist.Iterator
	maxSeq uint64
	entry  *skiplist.Entry
}

// reset points a at l resolved at maxSeq, unpositioned; reset(nil, 0)
// drops its references. A pooled iterator frame keeps the cursor, and
// Cursor re-aims it without allocating.
func (a *boundListIter) reset(l *skiplist.List, maxSeq uint64) {
	*a = boundListIter{maxSeq: maxSeq}
	if l != nil {
		a.it.Reset(l)
	}
}

// settle resolves the current node at the bound, advancing past nodes
// the bound cannot see.
func (a *boundListIter) settle() {
	for a.it.Valid() {
		if e, ok := skiplist.ResolveAt(a.it.Entry(), a.maxSeq); ok {
			a.entry = e
			return
		}
		a.it.Next()
	}
	a.entry = nil
}

func (a *boundListIter) SeekToFirst()    { a.it.SeekToFirst(); a.settle() }
func (a *boundListIter) Seek(key []byte) { a.it.Seek(key); a.settle() }
func (a *boundListIter) Next() {
	if !a.it.Valid() {
		return
	}
	a.it.Next()
	a.settle()
}
func (a *boundListIter) Valid() bool     { return a.entry != nil }
func (a *boundListIter) Key() []byte     { return a.it.Key() }
func (a *boundListIter) Seq() uint64     { return a.entry.Seq }
func (a *boundListIter) Value() []byte   { return a.entry.Value }
func (a *boundListIter) Err() error      { return nil }
func (a *boundListIter) Kind() keys.Kind { return entryKind(a.entry) }
func (a *boundListIter) Release()        { a.reset(nil, 0) }

var _ storage.MemLevel = (*memtable)(nil)
