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
//     node's (value, seqnum) pair — the paper's SWAP(succs[0].val, v) —
//     unless the resident pair is newer (higher seqnum): then the insert
//     is an older version, kept beneath the resident one if a Retention
//     bound needs it and dropped otherwise. Arrival order does not decide.
//   - Per-entry sequence numbers, read atomically together with the value,
//     which Scan uses to detect concurrent modification (§3.2).
//   - MultiInsert: n sorted elements inserted in one traversal, each
//     insertion starting from the splice (predecessor array) left by the
//     previous one instead of from the root.
//
// The comparator is pluggable so the multi-versioned baselines can reuse
// the list with internal (key,seq) keys.
//
// # Memory layout
//
// A node's immutable parts — header, tower and key — live in the list's
// arena: 1 MiB []byte chunks, so the garbage collector sees one pointer-free
// object per MiB instead of a node, a tower slice and a key per key. Nodes
// are named by uint32 offsets into the arena (offset 0 is "none" as a
// successor and the head as a predecessor), tower links are atomic uint32s
// inside the chunk, and a CAS on one takes no write barrier. A node is
//
//	slot uint32 | keyLen uint32 | height uint32 | tower [height]uint32 | key
//
// 4-byte aligned. A key of at least half a chunk gets a chunk of its own.
// Offsets cap one list at MaxArenaBytes (4 GiB) of nodes.
//
// The mutable part stays on the Go heap: slot indexes a chunked table of
// atomic.Pointer[Entry], and the Entry and its value are ordinary objects.
// In-place updates (§3.2) swap that pointer and Retention hangs displaced
// versions behind it, exactly as when nodes were heap objects; an
// overwrite frees the old value to the collector instead of leaving it in
// an append-only arena, where a hot key would fill the Memtable (and force
// a flush) with versions nobody can read. A key therefore costs the
// collector one Entry and one value, which holds no pointers.
package skiplist

import (
	"bytes"
	"slices"
	"sync/atomic"
	"unsafe"
)

const (
	// MaxHeight bounds tower height; 2^20 expected elements per level-1
	// node keeps search O(log n) up to ~1M nodes per memtable shard, and
	// taller lists degrade gracefully.
	MaxHeight = 20
	// pHeightBits: each level is taken with probability 1/2 (one bit per
	// level from the PRNG), the classic skiplist geometry.
	pHeightBits = 1
	// entryBytes is what a key costs ApproxBytes outside the arena besides
	// its value: the Entry (56 bytes, a 64-byte size class) and its slot.
	entryBytes = 64 + 8
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
	// Held, when not 0, is what ApproxBytes charges for Value instead of
	// its length: a Value that aliases a larger allocation (a drained
	// Membuffer pair, key included) keeps all of it alive.
	Held uint32

	// prev links to the newest older version this list's Retention still
	// needs (nil when no snapshot bound can observe one). It is atomic
	// because pruning relinks chains concurrently with readers walking
	// them.
	prev atomic.Pointer[Entry]
}

// held is what ApproxBytes charges for e's value.
func (e *Entry) held() int64 {
	if e.Held != 0 {
		return int64(e.Held)
	}
	return int64(len(e.Value))
}

// PrevVersion returns the next-older retained version, or nil.
func (e *Entry) PrevVersion() *Entry { return e.prev.Load() }

func (e *Entry) setPrev(p *Entry) { e.prev.Store(p) }

// Retention publishes the set of active snapshot sequence bounds to a
// list. While a bound B is active, an update that displaces a version
// with Seq <= B by one with Seq > B chains the displaced version beneath
// the new one instead of destroying it, so a reader at bound B can still
// reach the version it needs (GetAt); an older version arriving after a
// newer one is chained the same way. With no active bounds updates
// destroy the old version exactly as before — the single-versioned memory
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
	if r == nil {
		return nil
	}
	p := r.bounds.Load()
	if p == nil {
		return nil
	}
	return *p
}

// retain builds the version chain hung beneath an entry numbered top,
// from old's chain plus extra (an older version arriving late; nil when
// there is none): for each active bound B below top — top's own entry
// serves the others — the newest version with Seq <= B is kept,
// everything else is unlinked, and the chain is cut below the deepest
// kept version. A chain therefore holds at most len(bounds)+1 entries
// however hot the key. Concurrent readers are safe: relinks only bypass
// versions no active bound stops at, a reader's target (the newest
// version <= its bound, which is fixed once the bound is drawn) is always
// in the kept set, and kept entries are linked bottom-up and
// consecutively, so extra is complete before a reader can reach it and
// every downward walk reaches its target before passing below it.
func retain(old, extra *Entry, bounds []uint64, top uint64) *Entry {
	var kept []*Entry
	v := old
	for i := len(bounds) - 1; i >= 0; i-- {
		if bounds[i] >= top {
			continue
		}
		for v != nil && v.Seq > bounds[i] {
			v = v.PrevVersion()
		}
		k := v
		if extra != nil && extra.Seq <= bounds[i] && (k == nil || extra.Seq > k.Seq) {
			k = extra
		}
		if k == nil {
			break
		}
		if len(kept) == 0 || kept[len(kept)-1] != k {
			kept = append(kept, k)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	kept[len(kept)-1].setPrev(nil)
	for i := len(kept) - 2; i >= 0; i-- {
		kept[i].setPrev(kept[i+1])
	}
	return kept[0]
}

// needed reports whether a bound in bounds observes a version numbered
// seq beneath one numbered top: seq <= B < top.
func needed(bounds []uint64, seq, top uint64) bool {
	for _, b := range bounds {
		if seq <= b && b < top {
			return true
		}
	}
	return false
}

// KV pairs a key with its entry for MultiInsert batches.
type KV struct {
	Key   []byte
	Entry *Entry
}

// List is a concurrent skiplist. Create with New or NewWithComparator.
type List struct {
	// head is the head node's tower; its key compares below every key.
	head [MaxHeight]atomic.Uint32
	cmp  func(a, b []byte) int
	// length counts distinct keys; bytes is ApproxBytes.
	length atomic.Int64
	bytes  atomic.Int64
	// updates counts in-place value swaps (distinct from inserts); the
	// draining and ablation benchmarks report it.
	updates atomic.Int64
	// rngState seeds the lock-free splitmix64 height generator.
	rngState atomic.Uint64
	// ret, when non-nil, supplies the active snapshot bounds that make
	// updates chain displaced (or late) versions. Nil (the default) keeps
	// the classic destructive swap with zero overhead.
	ret *Retention

	arena   arena
	entries entrySlots
}

// SetRetention attaches the bound source consulted on updates.
// Call before the list is shared; lists without one never chain.
func (l *List) SetRetention(r *Retention) { l.ret = r }

// New returns an empty list ordered by bytes.Compare.
func New() *List { return NewWithComparator(bytes.Compare) }

// NewWithComparator returns an empty list with a custom key order.
func NewWithComparator(cmp func(a, b []byte) int) *List {
	l := &List{cmp: cmp}
	l.arena.init()
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

// --- Node access -------------------------------------------------------------

func field(p unsafe.Pointer, off uintptr) uint32 { return *(*uint32)(unsafe.Add(p, off)) }

// link returns node n's tower link at level lvl; n == 0 is the head.
func (l *List) link(n uint32, lvl int) *atomic.Uint32 {
	if n == 0 {
		return &l.head[lvl]
	}
	return (*atomic.Uint32)(unsafe.Add(l.arena.at(n), hdrSize+4*lvl))
}

// key returns node n's key, which aliases the arena.
func (l *List) key(n uint32) []byte {
	p := l.arena.at(n)
	kl := field(p, hdrKeyLen)
	if kl == 0 {
		// The key would start at the node's end, possibly the chunk's.
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Add(p, hdrSize+4*uintptr(field(p, hdrHeight)))), kl)
}

// entry returns node n's entry slot.
func (l *List) entry(n uint32) *atomic.Pointer[Entry] {
	return l.entries.at(field(l.arena.at(n), hdrSlot))
}

// newNode builds an unlinked node for key with entry e and returns its
// offset and its arena bytes.
func (l *List) newNode(key []byte, e *Entry, height int) (uint32, int64) {
	size := hdrSize + 4*height + len(key)
	n := l.arena.alloc(size)
	p := l.arena.at(n)
	*(*uint32)(unsafe.Add(p, hdrSlot)) = l.entries.add(e)
	*(*uint32)(unsafe.Add(p, hdrKeyLen)) = uint32(len(key))
	*(*uint32)(unsafe.Add(p, hdrHeight)) = uint32(height)
	if len(key) > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Add(p, hdrSize+4*height)), len(key)), key)
	}
	return n, int64(size+nodeAlign-1) &^ (nodeAlign - 1)
}

// --- Search ------------------------------------------------------------------

// splice is a key's position at every level: prev[i] < key <= next[i], with
// 0 as the head in prev and as the end of the list in next. Between the
// inserts of a sorted batch it also satisfies prev[i] >= prev[i+1], which
// is what lets the next search start from it.
type splice struct {
	prev, next [MaxHeight]uint32
}

// findSplice positions s at key and reports whether a node with exactly
// key exists (then s.next[0] is that node) — Algorithm 1's FindFromPreds.
//
// s must hold the head or keys strictly less than key: the zero splice, or
// the one left by a search for a smaller key. At each level the search
// starts from the further right of the node it came down from and the
// splice's predecessor. The latter is never behind the former while the
// search has not moved off the old splice, so only after a step right does
// choosing cost a comparison.
func (l *List) findSplice(key []byte, s *splice) bool {
	pred, above := uint32(0), uint32(0)
	moved, eq := false, false
	for lvl := MaxHeight - 1; lvl >= 0; lvl-- {
		hint := s.prev[lvl]
		if hint != pred && (!moved || hint != 0 && l.cmp(l.key(hint), l.key(pred)) > 0) {
			pred = hint
		}
		curr := l.link(pred, lvl).Load()
		for {
			if curr == 0 {
				eq = false
				break
			}
			if curr == above {
				// Compared at the level above: not less than key.
				break
			}
			if c := l.cmp(l.key(curr), key); c >= 0 {
				eq = c == 0
				break
			}
			pred = curr
			curr = l.link(curr, lvl).Load()
		}
		moved = pred != hint
		s.prev[lvl], s.next[lvl] = pred, curr
		above = curr
	}
	return eq
}

// seekGE returns the first node with key >= target, or 0, and whether its
// key equals target. That node is the one the bottom-level walk stopped
// at: loading its predecessor's link again instead would race with an
// insert landing between the two, and a Get of an existing key would miss.
func (l *List) seekGE(target []byte) (uint32, bool) {
	var s splice
	eq := l.findSplice(target, &s)
	return s.next[0], eq
}

// --- Insert ------------------------------------------------------------------

// Insert adds key with entry, or installs e at an existing key (update).
// It reports whether a new node was created. The key is copied into the
// list; e is retained. Safe for concurrent use with all other operations.
func (l *List) Insert(key []byte, e *Entry) (inserted bool) {
	var s splice
	_, inserted = l.insert(key, e, &s)
	return inserted
}

// insert is the shared body of Insert and MultiInsert (Algorithm 1 lines
// 24–42). It returns the node that holds key afterwards and whether it
// was created; s is left at key, ready for a larger one.
func (l *List) insert(key []byte, e *Entry, s *splice) (uint32, bool) {
	var nd uint32 // allocated lazily; reused across CAS retries
	var top int
	var size int64
	for {
		if l.findSplice(key, s) {
			l.update(s.next[0], e)
			return s.next[0], false
		}
		if nd == 0 {
			if e.CreateSeq == 0 {
				e.CreateSeq = e.Seq
			}
			top = l.randomHeight()
			nd, size = l.newNode(key, e, top)
		}
		for lvl := 0; lvl < top; lvl++ {
			l.link(nd, lvl).Store(s.next[lvl])
		}
		if !l.link(s.prev[0], 0).CompareAndSwap(s.next[0], nd) {
			// Lost the race at the bottom level; re-find and retry (the
			// winner may even have inserted our key).
			continue
		}
		// Linked at level 0: the node is in the list. Link upper levels.
		for lvl := 1; lvl < top; lvl++ {
			for !l.link(s.prev[lvl], lvl).CompareAndSwap(s.next[lvl], nd) {
				// A node landed between; walk on from the old predecessor,
				// still below key since nothing is ever removed.
				pred := s.prev[lvl]
				curr := l.link(pred, lvl).Load()
				for curr != 0 && l.cmp(l.key(curr), key) < 0 {
					pred = curr
					curr = l.link(curr, lvl).Load()
				}
				s.prev[lvl], s.next[lvl] = pred, curr
				l.link(nd, lvl).Store(curr)
			}
		}
		// The new node is the predecessor of any larger key at its levels.
		for lvl := 0; lvl < top; lvl++ {
			s.prev[lvl] = nd
		}
		l.length.Add(1)
		l.bytes.Add(size + entryBytes + e.held())
		return nd, true
	}
}

// update installs e at node n in sequence order. An e at least as new as
// the resident entry replaces it (the last arrival wins a tie), inheriting
// the creation seq; with retention active the displaced entry may need to
// be chained behind e, and a lost CAS must re-chain against the actual
// displaced entry or a concurrent writer's version would silently vanish
// from the chain. An older e is dropped unless a bound needs it beneath
// the resident entry; then a copy of the resident entry carrying the new
// chain replaces it through the same CAS, so the resident entry itself is
// never relinked.
func (l *List) update(n uint32, e *Entry) {
	slot := l.entry(n)
	for {
		old := slot.Load()
		bounds := l.ret.active()
		next := e
		if e.Seq < old.Seq {
			if !needed(bounds, e.Seq, old.Seq) {
				return
			}
			next = &Entry{Value: old.Value, Seq: old.Seq, CreateSeq: old.CreateSeq, Tombstone: old.Tombstone, Held: old.Held}
			next.setPrev(retain(old.PrevVersion(), e, bounds, old.Seq))
		} else {
			if old.CreateSeq != 0 {
				e.CreateSeq = old.CreateSeq
			} else {
				e.CreateSeq = old.Seq
			}
			e.setPrev(retain(old, nil, bounds, e.Seq))
		}
		if slot.CompareAndSwap(old, next) {
			if next == e {
				l.updates.Add(1)
				l.bytes.Add(e.held() - old.held())
			}
			return
		}
	}
}

// MultiInsert inserts the batch in one pass (Algorithm 1). The batch is
// sorted in place by key ascending unless it already is; duplicate keys
// within the batch, and keys already in the list, are resolved by
// update's sequence order, the later element winning a tie — exactly as
// repeated Inserts would. It returns the number of new nodes created.
//
// Multi-inserts are concurrent with each other, with Insert, and with
// readers. As in the paper, the batch is not atomic: intermediate states
// where only a prefix has been inserted are visible.
func (l *List) MultiInsert(batch []KV) (inserted int) {
	if len(batch) == 0 {
		return 0
	}
	if cmp := func(a, b KV) int { return l.cmp(a.Key, b.Key) }; !slices.IsSortedFunc(batch, cmp) {
		slices.SortStableFunc(batch, cmp)
	}
	var s splice
	var last uint32
	for i := range batch {
		kv := &batch[i]
		if i > 0 && l.cmp(kv.Key, batch[i-1].Key) == 0 {
			// The splice sits on this key's node, not below it: update it.
			l.update(last, kv.Entry)
			continue
		}
		var created bool
		if last, created = l.insert(kv.Key, kv.Entry, &s); created {
			inserted++
		}
	}
	return inserted
}

// --- Read --------------------------------------------------------------------

// Get returns the entry for key, or (nil, false).
func (l *List) Get(key []byte) (*Entry, bool) {
	if n, eq := l.seekGE(key); eq {
		return l.entry(n).Load(), true
	}
	return nil, false
}

// GetAt returns the newest version of key with Seq <= maxSeq, walking
// the node's retained version chain. ok is false when the key is absent
// or every retained version is newer than maxSeq (the key did not exist
// in this list at the bound — the caller continues to older components).
func (l *List) GetAt(key []byte, maxSeq uint64) (*Entry, bool) {
	n, eq := l.seekGE(key)
	if !eq {
		return nil, false
	}
	return ResolveAt(l.entry(n).Load(), maxSeq)
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

// Len returns the number of distinct keys.
func (l *List) Len() int { return int(l.length.Load()) }

// ApproxBytes returns the memory the list holds for its keys: each node's
// arena bytes, a fixed charge for its Entry and slot, and what the current
// value holds (Entry.Held; superseded values and arena slack are not
// counted).
func (l *List) ApproxBytes() int64 { return l.bytes.Load() }

// Updates returns the number of in-place updates performed.
func (l *List) Updates() int64 { return l.updates.Load() }

// Empty reports whether the list holds no keys.
func (l *List) Empty() bool { return l.head[0].Load() == 0 }

// --- Iterator --------------------------------------------------------------

// Iterator walks the bottom level of the list in key order. It is safe to
// use concurrently with inserts: entries inserted after the iterator passes
// a position are simply not observed, while the (value, seq) of each
// visited node is loaded atomically. Scan-level consistency is enforced by
// sequence numbers at the FloDB layer, not here.
type Iterator struct {
	l    *List
	curr uint32
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
	it.setNode(it.l.head[0].Load())
}

// Seek positions at the first key >= target.
func (it *Iterator) Seek(target []byte) {
	n, _ := it.l.seekGE(target)
	it.setNode(n)
}

// Next advances to the following key. Valid must be true.
func (it *Iterator) Next() {
	it.setNode(it.l.link(it.curr, 0).Load())
}

func (it *Iterator) setNode(n uint32) {
	it.curr = n
	if n != 0 {
		it.entry = it.l.entry(n).Load()
	} else {
		it.entry = nil
	}
}

// Valid reports whether the iterator is positioned at a key.
func (it *Iterator) Valid() bool { return it.curr != 0 }

// Key returns the current key. Valid must be true. The returned slice
// aliases the list and must not be modified.
func (it *Iterator) Key() []byte { return it.l.key(it.curr) }

// Entry returns the (value, seq, tombstone) snapshot taken when the
// iterator arrived at this key. Valid must be true.
func (it *Iterator) Entry() *Entry { return it.entry }

// Reload re-reads the current node's entry; scans use it when they want the
// newest state rather than the arrival snapshot.
func (it *Iterator) Reload() *Entry {
	it.entry = it.l.entry(it.curr).Load()
	return it.entry
}
