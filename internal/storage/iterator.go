package storage

import (
	"flodb/internal/cache"
	"flodb/internal/keys"
	"flodb/internal/sstable"
)

// InternalIterator is the iterator contract shared by memtable adapters,
// sstable iterators and composite iterators. Entries are visited in (user
// key ascending, sequence number descending) order.
type InternalIterator interface {
	SeekToFirst()
	Seek(key []byte)
	Next()
	Valid() bool
	Key() []byte
	Seq() uint64
	Kind() keys.Kind
	Value() []byte
	Err() error
}

// tableIterAdapter lifts *sstable.Iterator to InternalIterator (method
// sets already match; the adapter exists only to keep sstable free of this
// package's interface).
type tableIterAdapter struct{ *sstable.Iterator }

// NewTableIterator wraps an sstable iterator.
func NewTableIterator(it *sstable.Iterator) InternalIterator { return tableIterAdapter{it} }

// --- Merging iterator --------------------------------------------------------

// mergingIter merges n child iterators through a binary min-heap ordered by
// (key asc, seq desc, rank asc). Ties on (key, seq) are broken by child
// rank: lower rank means fresher source (e.g. newer L0 file), so the
// freshest entry is always surfaced first. Each heap item caches its
// child's current key and seq, so a comparison makes no interface call.
type mergingIter struct {
	children []InternalIterator
	h        []mergeItem
	err      error
}

// NewMergingIterator merges children; child order encodes freshness (index
// 0 is the freshest source).
func NewMergingIterator(children ...InternalIterator) InternalIterator {
	return &mergingIter{children: children}
}

// mergeItem is a valid child and a copy of what it is positioned on; key
// aliases the child's memory and is refreshed whenever the child moves.
type mergeItem struct {
	it   InternalIterator
	key  []byte
	seq  uint64
	rank int
}

func (a *mergeItem) less(b *mergeItem) bool {
	if c := keys.Compare(a.key, b.key); c != 0 {
		return c < 0
	}
	if a.seq != b.seq {
		return a.seq > b.seq // newer first
	}
	return a.rank < b.rank
}

// siftDown restores the heap below i. When h[i] already precedes both its
// children — an advanced winner that still wins, the common case where one
// level dominates the merge — it returns after those two comparisons.
func (m *mergingIter) siftDown(i int) {
	h := m.h
	for {
		min := i
		if l := 2*i + 1; l < len(h) && h[l].less(&h[min]) {
			min = l
		}
		if r := 2*i + 2; r < len(h) && h[r].less(&h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

func (m *mergingIter) Err() error      { return m.err }
func (m *mergingIter) Valid() bool     { return m.err == nil && len(m.h) > 0 }
func (m *mergingIter) Key() []byte     { return m.h[0].key }
func (m *mergingIter) Seq() uint64     { return m.h[0].seq }
func (m *mergingIter) Kind() keys.Kind { return m.h[0].it.Kind() }
func (m *mergingIter) Value() []byte   { return m.h[0].it.Value() }

// reset rebuilds the heap over the children, each already repositioned.
func (m *mergingIter) reset() {
	m.err = nil
	m.h = m.h[:0]
	for rank, it := range m.children {
		if err := it.Err(); err != nil && m.err == nil {
			m.err = err
		}
		if it.Valid() {
			m.h = append(m.h, mergeItem{it: it, key: it.Key(), seq: it.Seq(), rank: rank})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

func (m *mergingIter) SeekToFirst() {
	for _, it := range m.children {
		it.SeekToFirst()
	}
	m.reset()
}

func (m *mergingIter) Seek(key []byte) {
	for _, it := range m.children {
		it.Seek(key)
	}
	m.reset()
}

func (m *mergingIter) Next() {
	if !m.Valid() {
		return
	}
	top := &m.h[0]
	top.it.Next()
	if top.it.Valid() {
		top.key, top.seq = top.it.Key(), top.it.Seq()
	} else if err := top.it.Err(); err != nil {
		m.err = err
		return
	} else {
		last := len(m.h) - 1
		m.h[0] = m.h[last]
		m.h[last] = mergeItem{}
		m.h = m.h[:last]
	}
	m.siftDown(0)
}

// --- Level (concatenating) iterator ------------------------------------------

// levelIter iterates a sorted run of non-overlapping files (an L1+ level)
// by chaining per-table iterators, opening each table lazily through the
// cache. The current table's handle stays pinned (fd guaranteed open)
// until the iterator moves to the next file; callers who abandon a level
// iterator mid-run must close() it to drop the final pin.
type levelIter struct {
	cache *tableCache
	files []*FileMeta // sorted by Smallest, non-overlapping

	fileIdx int
	// cur walks the open file; it is meaningful only while curH pins that
	// file. Held by value: moving to the next file allocates nothing.
	cur  sstable.Iterator
	curH *cache.Handle
	err  error
}

// NewLevelIterator returns an iterator over a non-overlapping file run.
func NewLevelIterator(cache *tableCache, files []*FileMeta) *levelIter {
	l := new(levelIter)
	l.init(cache, files)
	return l
}

// init points l at a file run (or, with nils, at nothing). l.cur is reset
// rather than zeroed: its read window outlives the run it was filled from,
// which is what lets a pooled frame scan without allocating.
func (l *levelIter) init(cache *tableCache, files []*FileMeta) {
	l.close()
	l.cache, l.files, l.fileIdx, l.err = cache, files, -1, nil
}

// close releases the pin on the current table. The iterator becomes
// invalid; it may be re-positioned with SeekToFirst/Seek.
func (l *levelIter) close() {
	if l.curH != nil {
		l.curH.Release()
		l.curH = nil
	}
	l.cur.Reset(nil)
}

func (l *levelIter) openFile(i int) bool {
	l.close()
	if i >= len(l.files) {
		return false
	}
	r, h, err := l.cache.Get(l.files[i].Num)
	if err != nil {
		l.err = err
		return false
	}
	l.fileIdx = i
	l.curH = h
	l.cur.Reset(r)
	return true
}

func (l *levelIter) SeekToFirst() {
	l.err = nil
	if !l.openFile(0) {
		return
	}
	l.cur.SeekToFirst()
	l.skipExhausted()
}

func (l *levelIter) Seek(key []byte) {
	l.err = nil
	// Binary search over file ranges: first file whose Largest >= key.
	lo, hi := 0, len(l.files)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys.Compare(l.files[mid].Largest, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if !l.openFile(lo) {
		return
	}
	l.cur.Seek(key)
	l.skipExhausted()
}

func (l *levelIter) Next() {
	if l.curH == nil {
		return
	}
	l.cur.Next()
	l.skipExhausted()
}

// skipExhausted advances to the next file while the current iterator is
// spent.
func (l *levelIter) skipExhausted() {
	for l.curH != nil && !l.cur.Valid() {
		if err := l.cur.Err(); err != nil {
			l.err = err
			l.close()
			return
		}
		if !l.openFile(l.fileIdx + 1) {
			return
		}
		l.cur.SeekToFirst()
	}
}

func (l *levelIter) Valid() bool {
	return l.err == nil && l.curH != nil && l.cur.Valid()
}
func (l *levelIter) Key() []byte     { return l.cur.Key() }
func (l *levelIter) Seq() uint64     { return l.cur.Seq() }
func (l *levelIter) Kind() keys.Kind { return l.cur.Kind() }
func (l *levelIter) Value() []byte   { return l.cur.Value() }
func (l *levelIter) Err() error      { return l.err }

// --- Version iterator ---------------------------------------------------------

// versionIter merges memory cursors with every sorted run of a pinned
// Version. All of its parts — the merge heap, one table iterator per L0
// file, one level iterator per deeper level, and each table iterator's
// read window — live in the struct and survive release, so a pooled
// iterator frame opens a range read without allocating in proportion to
// the number of runs, and reads it without allocating in proportion to
// the blocks. The zero value is ready for init.
type versionIter struct {
	merge   mergingIter
	tables  []sstable.Iterator // one per L0 file
	handles []*cache.Handle    // the L0 tables' pins
	levels  []levelIter
}

// init points vi at mem (freshest first) followed by the runs of v: L0
// files newest→oldest, then L1..Ln, which is the order the merge breaks
// ties in. The caller keeps v pinned until release. After an error vi
// holds no pins.
//
// Each L0 table merged is charged one seek: it is a run of its own, which
// every range read pays a Seek in, and a table that has cost readers its
// seek budget asks to be compacted into L1 (requestReadCompaction).
func (vi *versionIter) init(s *Store, v *Version, mem []MemCursor) error {
	m := &vi.merge
	for _, c := range mem {
		m.children = append(m.children, c)
	}
	l0 := v.files[0]
	if cap(vi.tables) < len(l0) {
		vi.tables = make([]sstable.Iterator, len(l0))
	}
	vi.tables = vi.tables[:len(l0)]
	for i, f := range l0 {
		if f.chargeSeek() {
			s.requestReadCompaction(f)
		}
		r, h, err := s.cache.Get(f.Num)
		if err != nil {
			vi.release()
			return err
		}
		vi.handles = append(vi.handles, h)
		vi.tables[i].Reset(r)
		m.children = append(m.children, tableIterAdapter{&vi.tables[i]})
	}
	if vi.levels == nil {
		vi.levels = make([]levelIter, 0, NumLevels-1) // never regrown: the merge holds pointers into it
	}
	for l := 1; l < NumLevels; l++ {
		if len(v.files[l]) > 0 {
			vi.levels = vi.levels[:len(vi.levels)+1]
			li := &vi.levels[len(vi.levels)-1]
			li.init(s.cache, v.files[l])
			m.children = append(m.children, li)
		}
	}
	return nil
}

// release drops every table pin and every reference to the sources, so a
// pooled versionIter keeps no memtable, table or block alive. The
// backing arrays stay for the next init.
func (vi *versionIter) release() {
	for _, h := range vi.handles {
		h.Release()
	}
	clear(vi.handles)
	vi.handles = vi.handles[:0]
	for i := range vi.tables {
		vi.tables[i].Reset(nil)
	}
	for i := range vi.levels {
		vi.levels[i].init(nil, nil)
	}
	vi.levels = vi.levels[:0]
	m := &vi.merge
	clear(m.children)
	m.children = m.children[:0]
	clear(m.h[:cap(m.h)])
	m.h = m.h[:0]
	m.err = nil
}
