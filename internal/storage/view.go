package storage

import (
	"context"
	"fmt"
	"sync/atomic"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
)

// ReadView is what a sequence-bounded read resolves against, in every
// engine: the bound, up to two memory levels and a disk Version. FloDB's
// seq-bounded replacement for Algorithm 3 (§4.4) and the baselines'
// multi-versioned snapshots (§3.2) both read one.
type ReadView struct {
	// Seq is the bound: versions with a larger sequence number are
	// invisible.
	Seq uint64
	// Mem holds the engine's memory levels, newest first: the live
	// memtable, then the sealed one a flush is writing. A nil entry ends
	// the list.
	Mem [2]MemLevel
	// Ver is the pinned disk Version the view holds one reference on. Nil
	// means the view has no disk source: a Get then reads the store's
	// current state (a point read whose view was captured moments ago),
	// and an iterator reads memory only (an engine without a disk
	// component).
	Ver *Version
}

// MemLevel is one of an engine's memtables as a ReadView reads it. How
// a level answers at a bound is the engine's: FloDB resolves a user-key
// skiplist through its version chains, the baselines seek an internal-key
// skiplist.
type MemLevel interface {
	// Get returns the newest version of key with seq <= bound; ok is
	// false when the level holds none. value aliases the level.
	Get(key []byte, bound uint64) (value []byte, seq uint64, kind keys.Kind, ok bool)
	// Cursor returns a cursor over the level's versions at bound,
	// unpositioned. It re-aims reuse, a cursor this engine's levels
	// returned before, when it can, so a pooled iterator frame opens
	// without allocating; reuse may be nil. A cursor may also yield
	// versions newer than bound: the iterator above it skips them.
	Cursor(reuse MemCursor, bound uint64) MemCursor
}

// MemCursor is a MemLevel's cursor.
type MemCursor interface {
	InternalIterator
	// Release drops the cursor's references to its level, so a pooled
	// frame keeps no memtable alive.
	Release()
}

// ViewGet returns the value key had at v's bound: the first memory level
// holding a version at or below it answers, then v's Version at the bound
// (without one, the store's current state). The value aliases store
// memory that is never written again. v must have a disk source: a Store.
func (f *Front) ViewGet(v ReadView, key []byte) ([]byte, bool, error) {
	for _, m := range v.Mem {
		if m == nil {
			break
		}
		if val, _, kind, ok := m.Get(key, v.Seq); ok {
			if kind == keys.KindDelete {
				return nil, false, nil
			}
			return val, true, nil
		}
	}
	var (
		val  []byte
		kind keys.Kind
		ok   bool
		err  error
	)
	if v.Ver != nil {
		val, _, kind, ok, err = f.store.GetAt(v.Ver, key, v.Seq)
	} else {
		val, _, kind, ok, err = f.store.Get(key)
	}
	if err != nil || !ok || kind == keys.KindDelete {
		return nil, false, err
	}
	return val, true, nil
}

// release drops the references a pinned view holds: its Version, then
// whatever the engine's Release adds.
func (f *Front) release(v ReadView) {
	if v.Ver != nil {
		f.store.ReleaseVersion(v.Ver)
	}
	if f.eng.Release != nil {
		f.eng.Release(v.Seq)
	}
}

// pin is a ReadView with the count of handles reading it. A snapshot
// handle and the iterators opened through it share one pin; an iterator
// over a live read owns its own. The view's references are dropped when
// the count's last one is.
//
// The reference rule: a new reference is taken only while one is still
// held (ref). A handle that loses the race with the last unref fails
// instead of reviving the view — a retain after the release would bring
// a superseded Version back to life, and its release would then drop its
// tables' references a second time, unlinking tables the current Version
// still lists.
type pin struct {
	ReadView
	f    *Front
	refs atomic.Int32
}

// init points p at v, holding the caller's one reference.
func (p *pin) init(f *Front, v ReadView) {
	p.ReadView, p.f = v, f
	p.refs.Store(1)
}

// ref takes one more reference, only while another is still held.
func (p *pin) ref() bool {
	for n := p.refs.Load(); n > 0; n = p.refs.Load() {
		if p.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
	return false
}

// unref drops one reference; the last releases the view.
func (p *pin) unref() {
	if p.refs.Add(-1) == 0 {
		p.f.release(p.ReadView)
	}
}

// ViewIterator streams v over low <= key < high (nil bounds are open). It
// takes over the caller's reference on v, which the iterator's Close
// releases (or this call, when it fails).
//
// The range is never materialized: pairs are read straight out of the
// memory levels and each sstable source's read window as the cursor
// moves, so Key and Value alias that memory and are valid until the
// cursor moves. The context is captured: every positioning call checks
// it, so a canceled or expired context stops iteration with the context's
// error in Err.
func (f *Front) ViewIterator(ctx context.Context, v ReadView, low, high []byte) (kv.Iterator, error) {
	it := new(iter)
	it.own.init(f, v)
	return it.open(ctx, &it.own, low, high)
}

// frame is everything an open iterator needs besides its view: the memory
// levels' cursors, the merge over them and the disk runs, and the
// snapshot filter on top. Frames are recycled through Front.frames, so
// opening an iterator allocates its handle and nothing in proportion to
// the number of sources.
type frame struct {
	snap  snapshotIter
	merge versionIter
	mem   [2]MemCursor
}

// recycle clears every reference f holds — a pooled frame must not keep a
// memtable, a table or a caller's context alive — and pools it.
func (f *Front) recycle(fr *frame) {
	fr.snap.reset(nil, nil, nil, nil, 0)
	fr.merge.release()
	for _, c := range fr.mem {
		if c != nil {
			c.Release()
		}
	}
	f.frames.Put(fr)
}

// iter is the iterator handle. It is deliberately NOT recycled with its
// frame: a second Close, or any call after Close, must find a dead handle
// rather than somebody else's live frame.
type iter struct {
	f   *frame // nil once closed
	p   *pin
	own pin   // the view of a live read, which this iterator alone holds
	err error // what Err reported at Close
}

var _ kv.Iterator = (*iter)(nil)

// open streams p over [low, high) on one reference the caller took on p,
// released by Close (or here, on failure).
func (it *iter) open(ctx context.Context, p *pin, low, high []byte) (kv.Iterator, error) {
	fr, _ := p.f.frames.Get().(*frame)
	if fr == nil {
		fr = new(frame)
	}
	n := 0
	for ; n < len(p.Mem) && p.Mem[n] != nil; n++ {
		fr.mem[n] = p.Mem[n].Cursor(fr.mem[n], p.Seq)
	}
	if err := fr.merge.init(p.f.store, p.Ver, fr.mem[:n]); err != nil {
		p.f.recycle(fr)
		p.unref()
		return nil, err
	}
	fr.snap.reset(ctx, &fr.merge.merge, low, high, p.Seq)
	it.f, it.p = fr, p
	return it, nil
}

func (it *iter) First() bool { return it.f != nil && it.f.snap.First() }

func (it *iter) Seek(key []byte) bool { return it.f != nil && it.f.snap.Seek(key) }

func (it *iter) Next() bool { return it.f != nil && it.f.snap.Next() }

// Key returns the current key; the slice aliases store memory and is valid
// until the cursor moves.
func (it *iter) Key() []byte {
	if it.f == nil {
		return nil
	}
	return it.f.snap.Key()
}

// Value returns the current value, under the same aliasing rule as Key.
func (it *iter) Value() []byte {
	if it.f == nil {
		return nil
	}
	return it.f.snap.Value()
}

// Err returns the first error the iterator encountered. It survives Close.
func (it *iter) Err() error {
	if it.f == nil {
		return it.err
	}
	return it.f.snap.Err()
}

// Close releases the iterator's table pins and recycles its frame, then
// drops its reference on the view. It is idempotent.
func (it *iter) Close() error {
	if it.f == nil {
		return nil
	}
	it.err = it.f.snap.Err()
	it.p.f.recycle(it.f)
	it.f = nil
	it.p.unref()
	return nil
}

// snapHandle is the snapshot handle of every engine: a pinned ReadView,
// read through until Close.
type snapHandle struct {
	pin
	closed atomic.Bool
}

var _ kv.View = (*snapHandle)(nil)

// acquire is the test every call on the handle starts with, and takes the
// call's reference on the view: a call that loses the race with Close
// fails with kv.ErrSnapshotReleased and takes nothing.
func (s *snapHandle) acquire(ctx context.Context) error {
	if s.closed.Load() {
		return kv.ErrSnapshotReleased
	}
	if err := s.f.Check(ctx); err != nil {
		return err
	}
	if !s.ref() {
		return kv.ErrSnapshotReleased
	}
	return nil
}

// Get returns the value key had at the snapshot point. The returned slice
// is a copy.
func (s *snapHandle) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, false, err
	}
	defer s.unref()
	v, ok, err := s.f.ViewGet(s.ReadView, key)
	return keys.Clone(v), ok, err
}

// Scan materializes all pairs with low <= key < high at the snapshot
// point.
func (s *snapHandle) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	it, err := s.NewIterator(ctx, low, high)
	if err != nil {
		return nil, err
	}
	return kv.Collect(it)
}

// NewIterator streams the snapshot's range. The iterator holds its own
// reference on the view, so it stays valid if the handle is Closed
// mid-iteration.
func (s *snapHandle) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	s.f.ops.Iterators.Add(1)
	return new(iter).open(ctx, &s.pin, low, high)
}

// Close drops the handle's reference. Calls after Close return
// kv.ErrSnapshotReleased; iterators already opened keep the view until
// their own Close. Close is idempotent.
func (s *snapHandle) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.f.events.Emit(obs.Event{Type: obs.EventSnapshotUnpin, Detail: fmt.Sprintf("seq bound %d", s.Seq)})
	s.unref()
	return nil
}

// snapshotIter streams the live pairs of a merged InternalIterator with
// seq <= snap in ascending key order, deduplicating versions and skipping
// tombstones. Multi-versioning makes the stream conflict-free: versions
// newer than the bound are simply skipped — the approach whose memory
// cost the paper's §3.2 criticizes, but which needs no restarts.
type snapshotIter struct {
	ctx       context.Context
	m         InternalIterator
	low, high []byte
	bounded   bool // high is a bound (a nil high is open, an empty one is not)
	snap      uint64

	lastKey    []byte
	haveLast   bool
	positioned bool
	onPair     bool
	err        error
}

// reset makes it a fresh, unpositioned iterator over m, reusing the
// buffers of its previous life; low and high are copied. reset(nil, nil,
// nil, nil, 0) drops every reference it holds.
func (it *snapshotIter) reset(ctx context.Context, m InternalIterator, low, high []byte, snap uint64) {
	*it = snapshotIter{
		ctx:     ctx,
		m:       m,
		low:     append(it.low[:0], low...),
		high:    append(it.high[:0], high...),
		bounded: high != nil,
		snap:    snap,
		lastKey: it.lastKey[:0],
	}
}

// checkCtx records a context error, stopping iteration.
func (it *snapshotIter) checkCtx() bool {
	if it.err != nil {
		return false
	}
	if err := it.ctx.Err(); err != nil {
		it.err = err
		it.onPair = false
		return false
	}
	return true
}

// First positions at the first live pair of the range.
func (it *snapshotIter) First() bool {
	if !it.checkCtx() {
		return false
	}
	it.positioned = true
	it.haveLast = false
	it.m.Seek(it.low)
	return it.settle()
}

// Seek positions at the first live pair with key >= key (clamped to low).
func (it *snapshotIter) Seek(key []byte) bool {
	if !it.checkCtx() {
		return false
	}
	if keys.Compare(key, it.low) < 0 {
		key = it.low
	}
	it.positioned = true
	it.haveLast = false
	it.m.Seek(key)
	return it.settle()
}

// Next advances past the current key's remaining versions to the next
// live pair; unpositioned, it is equivalent to First.
func (it *snapshotIter) Next() bool {
	if !it.checkCtx() {
		return false
	}
	if !it.positioned {
		return it.First()
	}
	if it.m.Valid() {
		it.m.Next()
	}
	return it.settle()
}

// settle skips versions newer than the snapshot, superseded versions of an
// already-visited key, and tombstones, stopping on the next live pair.
func (it *snapshotIter) settle() bool {
	it.onPair = false
	for n := 0; it.m.Valid(); it.m.Next() {
		// A long run of invisible versions must still honor cancellation.
		if n++; n&1023 == 0 && !it.checkCtx() {
			return false
		}
		k := it.m.Key()
		if it.bounded && keys.Compare(k, it.high) >= 0 {
			return false
		}
		if it.m.Seq() > it.snap {
			continue // newer than the snapshot: invisible
		}
		if it.haveLast && keys.Equal(it.lastKey, k) {
			continue // superseded version of a visited key
		}
		it.lastKey = append(it.lastKey[:0], k...)
		it.haveLast = true
		if it.m.Kind() == keys.KindDelete {
			continue
		}
		it.onPair = true
		return true
	}
	return false
}

// Key returns the current key; the slice is valid until the next advance.
func (it *snapshotIter) Key() []byte {
	if !it.onPair {
		return nil
	}
	return it.m.Key()
}

// Value returns the current value, under the same aliasing rule as Key.
func (it *snapshotIter) Value() []byte {
	if !it.onPair {
		return nil
	}
	return it.m.Value()
}

// Err returns the first error: a context error or the underlying merge's.
func (it *snapshotIter) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.m.Err()
}
