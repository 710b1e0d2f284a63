// Package skiplist implements the concurrent skiplist used as FloDB's
// Memtable, including the paper's novel multi-insert operation
// (Algorithm 1, §4.3).
//
// Properties matching the paper's requirements:
//
//   - Lock-free inserts and wait-free reads built from CAS on next
//     pointers (the Herlihy–Shavit design the paper cites [29]).
//   - Insert-only: entries are never removed individually; the whole list
//     is dropped when a Memtable is persisted. The absence of removal is
//     what makes multi-insert's predecessor reuse safe (§4.3,
//     "Concurrency").
//   - In-place updates: inserting an existing key atomically swaps the
//     node's (value, seqnum) pair — the paper's SWAP(succs[0].val, v).
//   - Per-entry sequence numbers, read atomically together with the value,
//     which Scan uses to detect concurrent modification (§3.2).
//   - MultiInsert: n sorted elements inserted in one traversal, each
//     insertion starting from the predecessor array left by the previous
//     one instead of from the root.
//
// The comparator is pluggable so the multi-versioned baselines can reuse
// the list with internal (key,seq) keys.
package skiplist

import (
	"bytes"
	"sort"
	"sync/atomic"
)

const (
	// MaxHeight bounds tower height; 2^20 expected elements per level-1
	// node keeps search O(log n) up to ~1M nodes per memtable shard, and
	// taller lists degrade gracefully.
	MaxHeight = 20
	// pHeightBits: each level is taken with probability 1/2 (one bit per
	// level from the PRNG), the classic skiplist geometry.
	pHeightBits = 1
)

// Entry is the payload stored at a node: a value, the sequence number
// assigned when the entry entered the memtable, and a tombstone marker for
// deletes. Entries are immutable once published; updates swap the whole
// pointer so readers always observe a consistent (value, seq) pair.
//
// CreateSeq records the sequence number the node was FIRST inserted with;
// in-place updates carry it forward. It told Algorithm 3's restarting scan
// "this key did not exist at my snapshot" from "this key's snapshot value
// was overwritten in place"; bounded readers resolve version chains
// instead (ResolveAt), so nothing in the store reads it any more.
type Entry struct {
	Value     []byte
	Seq       uint64
	CreateSeq uint64
	Tombstone bool

	// prev links to the newest older version this list's Retention still
	// needs (nil when no snapshot bound can observe one). It is atomic
	// because pruning relinks chains concurrently with readers walking
	// them.
	prev atomic.Pointer[Entry]
}

// PrevVersion returns the next-older retained version, or nil.
func (e *Entry) PrevVersion() *Entry { return e.prev.Load() }

func (e *Entry) setPrev(p *Entry) { e.prev.Store(p) }

// Retention publishes the set of active snapshot sequence bounds to a
// list. While a bound B is active, an in-place update of a key whose
// current entry has Seq <= B chains the displaced entry behind the new
// one instead of destroying it, so a reader at bound B can still reach
// the version it needs (GetAt). With no active bounds updates destroy
// the old version exactly as before — the single-versioned memory
// component of §3.2 — so the retention machinery costs nothing when no
// snapshot is open.
type Retention struct {
	bounds atomic.Pointer[[]uint64]
}

// Set publishes the active bounds, sorted ascending. The slice is
// retained and read without synchronization from then on: the caller
// hands it over and must not modify it. An empty set disables chaining.
func (r *Retention) Set(bounds []uint64) {
	r.bounds.Store(&bounds)
}

func (r *Retention) active() []uint64 {
	p := r.bounds.Load()
	if p == nil {
		return nil
	}
	return *p
}

// retain builds the version chain hung beneath a new entry displacing
// old: for each active bound B the newest version with Seq <= B is
// kept, everything else is unlinked, and the chain is cut below the
// deepest kept version — so a chain holds at most len(bounds)+1 entries
// however hot the key. Concurrent readers are safe: relinks only bypass
// versions no active bound stops at, a reader's target (the newest
// version <= its bound, which is fixed once the bound is drawn) is
// always in the kept set, and kept entries are linked consecutively, so
// every downward walk reaches the target before passing below it.
func retain(old *Entry, bounds []uint64) *Entry {
	if len(bounds) == 0 {
		return nil
	}
	var kept []*Entry
	v := old
	for i := len(bounds) - 1; i >= 0; i-- {
		for v != nil && v.Seq > bounds[i] {
			v = v.PrevVersion()
		}
		if v == nil {
			break
		}
		if len(kept) == 0 || kept[len(kept)-1] != v {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	for i := 0; i < len(kept)-1; i++ {
		kept[i].setPrev(kept[i+1])
	}
	kept[len(kept)-1].setPrev(nil)
	return kept[0]
}

// KV pairs a key with its entry for MultiInsert batches.
type KV struct {
	Key   []byte
	Entry *Entry
}

type node struct {
	key   []byte
	entry atomic.Pointer[Entry]
	// next[0..height) are the tower links. The slice is immutable after
	// construction; the pointers within are CAS-updated.
	next []atomic.Pointer[node]
}

func (n *node) height() int { return len(n.next) }

// List is a concurrent skiplist. Create with New or NewWithComparator.
type List struct {
	head *node
	cmp  func(a, b []byte) int
	// length counts distinct keys; bytes approximates memory usage of keys
	// plus current values (superseded values are not counted).
	length atomic.Int64
	bytes  atomic.Int64
	// updates counts in-place value swaps (distinct from inserts); the
	// draining and ablation benchmarks report it.
	updates atomic.Int64
	// rngState seeds the lock-free splitmix64 height generator.
	rngState atomic.Uint64
	// ret, when non-nil, supplies the active snapshot bounds that make
	// in-place updates chain displaced versions. Nil (the default) keeps
	// the classic destructive swap with zero overhead.
	ret *Retention
}

// SetRetention attaches the bound source consulted on in-place updates.
// Call before the list is shared; lists without one never chain.
func (l *List) SetRetention(r *Retention) { l.ret = r }

// New returns an empty list ordered by bytes.Compare.
func New() *List { return NewWithComparator(bytes.Compare) }

// NewWithComparator returns an empty list with a custom key order.
func NewWithComparator(cmp func(a, b []byte) int) *List {
	l := &List{
		head: &node{next: make([]atomic.Pointer[node], MaxHeight)},
		cmp:  cmp,
	}
	l.rngState.Store(0x9e3779b97f4a7c15)
	return l
}

// randomHeight draws a geometric height in [1, MaxHeight] from a lock-free
// splitmix64 stream.
func (l *List) randomHeight() int {
	x := l.rngState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	h := 1
	for x&1 == 1 && h < MaxHeight {
		h++
		x >>= pHeightBits
	}
	return h
}

// less reports whether node n's key is strictly less than key. The head
// node compares less than everything.
func (l *List) less(n *node, key []byte) bool {
	if n == l.head {
		return true
	}
	return l.cmp(n.key, key) < 0
}

// findFromPreds locates key starting from the hint arrays rather than the
// root — Algorithm 1's FindFromPreds. preds/succs are updated in place to
// key's predecessor and successor at every level. It returns true if a node
// with exactly key exists (then succs[0] is that node).
//
// Hints must be "behind" key: every non-head preds[level] must hold a key
// strictly less than key. MultiInsert guarantees this by sorting the batch;
// single Insert passes head-initialized arrays.
func (l *List) findFromPreds(key []byte, preds, succs *[MaxHeight]*node) bool {
	pred := l.head
	for level := MaxHeight - 1; level >= 0; level-- {
		// Path reuse: jump to the stored predecessor if it is ahead of the
		// one inherited from the level above. The hint is only usable if
		// its key is strictly less than the target: a batch may contain
		// duplicate keys, in which case the stored predecessor is the
		// just-inserted node itself and must be ignored.
		if p := preds[level]; p != nil && p != pred && p != l.head && l.cmp(p.key, key) < 0 {
			if pred == l.head || l.cmp(p.key, pred.key) > 0 {
				pred = p
			}
		}
		curr := pred.next[level].Load()
		for curr != nil && l.less(curr, key) {
			pred = curr
			curr = curr.next[level].Load()
		}
		preds[level] = pred
		succs[level] = curr
	}
	s := succs[0]
	return s != nil && l.cmp(s.key, key) == 0
}

// newPredsArrays returns hint arrays pointing at the root.
func (l *List) newPredsArrays() (*[MaxHeight]*node, *[MaxHeight]*node) {
	var preds, succs [MaxHeight]*node
	for i := range preds {
		preds[i] = l.head
	}
	return &preds, &succs
}

// Insert adds key with entry, or atomically replaces the entry of an
// existing key (in-place update). It reports whether a new node was
// created. Safe for concurrent use with all other operations.
func (l *List) Insert(key []byte, e *Entry) (inserted bool) {
	preds, succs := l.newPredsArrays()
	return l.insertFrom(key, e, preds, succs)
}

// insertFrom is the shared body of Insert and MultiInsert: Algorithm 1
// lines 24–42.
func (l *List) insertFrom(key []byte, e *Entry, preds, succs *[MaxHeight]*node) bool {
	var nd *node // allocated lazily; reused across CAS retries
	for {
		if l.findFromPreds(key, preds, succs) {
			// Existing key: in-place update, inheriting the creation seq.
			// The swap is a CAS loop rather than a
			// blind Swap: with retention active the displaced entry may
			// need to be chained behind the new one, and a lost race must
			// re-chain against the actual displaced entry or a concurrent
			// writer's version would silently vanish from the chain.
			nd := succs[0]
			for {
				old := nd.entry.Load()
				if old.CreateSeq != 0 {
					e.CreateSeq = old.CreateSeq
				} else {
					e.CreateSeq = old.Seq
				}
				if l.ret != nil {
					e.setPrev(retain(old, l.ret.active()))
				}
				if nd.entry.CompareAndSwap(old, e) {
					l.updates.Add(1)
					l.bytes.Add(int64(len(e.Value)) - int64(len(old.Value)))
					return false
				}
			}
		}
		if nd == nil {
			if e.CreateSeq == 0 {
				e.CreateSeq = e.Seq
			}
			h := l.randomHeight()
			nd = &node{key: key, next: make([]atomic.Pointer[node], h)}
			nd.entry.Store(e)
		}
		top := nd.height()
		for lvl := 0; lvl < top; lvl++ {
			nd.next[lvl].Store(succs[lvl])
		}
		if !preds[0].next[0].CompareAndSwap(succs[0], nd) {
			// Lost the race at the bottom level; re-find and retry (the
			// winner may even have inserted our key).
			continue
		}
		// Linked at level 0: the node is in the list. Link upper levels.
		for lvl := 1; lvl < top; lvl++ {
			for {
				if preds[lvl].next[lvl].CompareAndSwap(succs[lvl], nd) {
					break
				}
				l.findFromPreds(key, preds, succs)
				if succs[lvl] == nd {
					// A concurrent findFromPreds can observe nd already at
					// this level only if our CAS actually succeeded under a
					// spurious-looking failure path; treat as linked.
					break
				}
				nd.next[lvl].Store(succs[lvl])
			}
		}
		// Leave preds positioned at the new node for path reuse by the
		// next element of a multi-insert batch.
		for lvl := 0; lvl < top; lvl++ {
			preds[lvl] = nd
		}
		l.length.Add(1)
		l.bytes.Add(int64(len(key)) + int64(len(e.Value)) + nodeOverhead(top))
		return true
	}
}

// nodeOverhead approximates per-node bookkeeping bytes for size accounting:
// the node struct, tower slice, and entry struct.
func nodeOverhead(height int) int64 { return int64(64 + 16*height) }

// MultiInsert inserts the batch in one pass (Algorithm 1). The batch is
// sorted in place by key ascending; for duplicate keys within the batch the
// later element wins (it overwrites in place, matching repeated Inserts).
// It returns the number of new nodes created.
//
// Multi-inserts are concurrent with each other, with Insert, and with
// readers. As in the paper, the batch is not atomic: intermediate states
// where only a prefix has been inserted are visible.
func (l *List) MultiInsert(batch []KV) (inserted int) {
	if len(batch) == 0 {
		return 0
	}
	sort.SliceStable(batch, func(i, j int) bool { return l.cmp(batch[i].Key, batch[j].Key) < 0 })
	preds, succs := l.newPredsArrays()
	for _, kv := range batch {
		if l.insertFrom(kv.Key, kv.Entry, preds, succs) {
			inserted++
		}
	}
	return inserted
}

// Get returns the entry for key, or (nil, false).
func (l *List) Get(key []byte) (*Entry, bool) {
	n := l.seekGE(key)
	if n != nil && l.cmp(n.key, key) == 0 {
		return n.entry.Load(), true
	}
	return nil, false
}

// GetAt returns the newest version of key with Seq <= maxSeq, walking
// the node's retained version chain. ok is false when the key is absent
// or every retained version is newer than maxSeq (the key did not exist
// in this list at the bound — the caller continues to older components).
func (l *List) GetAt(key []byte, maxSeq uint64) (*Entry, bool) {
	n := l.seekGE(key)
	if n == nil || l.cmp(n.key, key) != 0 {
		return nil, false
	}
	return ResolveAt(n.entry.Load(), maxSeq)
}

// ResolveAt walks e's version chain for the newest version with
// Seq <= maxSeq. Iterators over bounded views use it on each visited
// entry.
func ResolveAt(e *Entry, maxSeq uint64) (*Entry, bool) {
	for ; e != nil; e = e.PrevVersion() {
		if e.Seq <= maxSeq {
			return e, true
		}
	}
	return nil, false
}

// seekGE returns the first node with key >= target, or nil.
func (l *List) seekGE(target []byte) *node {
	pred := l.head
	var curr *node
	for level := MaxHeight - 1; level >= 0; level-- {
		curr = pred.next[level].Load()
		for curr != nil && l.less(curr, target) {
			pred = curr
			curr = curr.next[level].Load()
		}
	}
	// curr is the node the bottom-level walk stopped at. Loading
	// pred.next[0] again instead would race with an insert landing between
	// pred and curr: the newcomer is smaller than target, and a Get of an
	// existing key would miss it.
	return curr
}

// Len returns the number of distinct keys.
func (l *List) Len() int { return int(l.length.Load()) }

// ApproxBytes returns the approximate memory footprint of keys, live
// values, and node overhead.
func (l *List) ApproxBytes() int64 { return l.bytes.Load() }

// Updates returns the number of in-place updates performed.
func (l *List) Updates() int64 { return l.updates.Load() }

// Empty reports whether the list holds no keys.
func (l *List) Empty() bool { return l.head.next[0].Load() == nil }

// --- Iterator --------------------------------------------------------------

// Iterator walks the bottom level of the list in key order. It is safe to
// use concurrently with inserts: entries inserted after the iterator passes
// a position are simply not observed, while the (value, seq) of each
// visited node is loaded atomically. Scan-level consistency is enforced by
// sequence numbers at the FloDB layer, not here.
type Iterator struct {
	l    *List
	curr *node
	// entry is the snapshot loaded when the iterator moved to curr, so Key
	// and Entry always describe the same moment.
	entry *Entry
}

// NewIterator returns an iterator positioned before the first key.
func (l *List) NewIterator() *Iterator { return &Iterator{l: l} }

// Reset points it at l, positioned before the first key, so an iterator
// held by value can be re-aimed without allocating.
func (it *Iterator) Reset(l *List) { *it = Iterator{l: l} }

// SeekToFirst positions at the first key.
func (it *Iterator) SeekToFirst() {
	it.setNode(it.l.head.next[0].Load())
}

// Seek positions at the first key >= target.
func (it *Iterator) Seek(target []byte) {
	it.setNode(it.l.seekGE(target))
}

// Next advances to the following key. Valid must be true.
func (it *Iterator) Next() {
	it.setNode(it.curr.next[0].Load())
}

func (it *Iterator) setNode(n *node) {
	it.curr = n
	if n != nil {
		it.entry = n.entry.Load()
	} else {
		it.entry = nil
	}
}

// Valid reports whether the iterator is positioned at a key.
func (it *Iterator) Valid() bool { return it.curr != nil }

// Key returns the current key. Valid must be true. The returned slice must
// not be modified.
func (it *Iterator) Key() []byte { return it.curr.key }

// Entry returns the (value, seq, tombstone) snapshot taken when the
// iterator arrived at this key. Valid must be true.
func (it *Iterator) Entry() *Entry { return it.entry }

// Reload re-reads the current node's entry; scans use it when they want the
// newest state rather than the arrival snapshot.
func (it *Iterator) Reload() *Entry {
	it.entry = it.curr.entry.Load()
	return it.entry
}
