package storage

import (
	"context"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

// SnapshotIterOptions configure a SnapshotIter.
type SnapshotIterOptions struct {
	// Low and High bound the range (low <= key < high; nil is open). The
	// slices are cloned.
	Low, High []byte
	// MaxSeq is the snapshot bound: versions with seq > MaxSeq are
	// invisible.
	MaxSeq uint64
	// OnClose, when non-nil, runs once on Close — typically releasing a
	// pinned Version and running the store's end-of-read critical section.
	OnClose func()
}

// NewSnapshotIter wraps a merged InternalIterator (memtables and/or a
// pinned disk Version) as a kv.Iterator that streams live pairs with
// seq <= MaxSeq in ascending key order, deduplicating versions and
// skipping tombstones. Multi-versioning makes the stream conflict-free:
// versions newer than the bound are simply skipped — the approach whose
// memory cost the paper's §3.2 criticizes, but which needs no restarts.
//
// The context is captured: every positioning call checks it, so a
// canceled or expired context makes iteration stop promptly with the
// context's error in Err.
func NewSnapshotIter(ctx context.Context, m InternalIterator, opts SnapshotIterOptions) kv.Iterator {
	it := new(SnapshotIter)
	it.Reset(ctx, m, opts)
	return it
}

// SnapshotIter streams live pairs <= snap in key order. It is exported so
// a caller can hold one by value in a recycled frame and Reset it per
// read; everyone else uses NewSnapshotIter.
type SnapshotIter struct {
	ctx       context.Context
	m         InternalIterator
	low, high []byte
	bounded   bool // high is a bound (a nil High is open, an empty one is not)
	snap      uint64
	onClose   func()

	lastKey    []byte
	haveLast   bool
	positioned bool
	onPair     bool
	closed     bool
	err        error
}

var _ kv.Iterator = (*SnapshotIter)(nil)

// Reset makes it a fresh, unpositioned iterator over m, reusing the
// buffers of its previous life. Reset(nil, nil, SnapshotIterOptions{})
// drops every reference it holds.
func (it *SnapshotIter) Reset(ctx context.Context, m InternalIterator, opts SnapshotIterOptions) {
	*it = SnapshotIter{
		ctx:     ctx,
		m:       m,
		low:     append(it.low[:0], opts.Low...),
		high:    append(it.high[:0], opts.High...),
		bounded: opts.High != nil,
		snap:    opts.MaxSeq,
		onClose: opts.OnClose,
		lastKey: it.lastKey[:0],
	}
}

// checkCtx records a context error, stopping iteration.
func (it *SnapshotIter) checkCtx() bool {
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
func (it *SnapshotIter) First() bool {
	if it.closed || !it.checkCtx() {
		return false
	}
	it.positioned = true
	it.haveLast = false
	it.m.Seek(it.low)
	return it.settle()
}

// Seek positions at the first live pair with key >= key (clamped to low).
func (it *SnapshotIter) Seek(key []byte) bool {
	if it.closed || !it.checkCtx() {
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
func (it *SnapshotIter) Next() bool {
	if it.closed || !it.checkCtx() {
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
func (it *SnapshotIter) settle() bool {
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
func (it *SnapshotIter) Key() []byte {
	if !it.onPair {
		return nil
	}
	return it.m.Key()
}

// Value returns the current value, under the same aliasing rule as Key.
func (it *SnapshotIter) Value() []byte {
	if !it.onPair {
		return nil
	}
	return it.m.Value()
}

// Err returns the first error: a context error or the underlying merge's.
func (it *SnapshotIter) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.m.Err()
}

// Close releases the iterator's pinned resources. It is idempotent.
func (it *SnapshotIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.onPair = false
	if it.onClose != nil {
		it.onClose()
	}
	return nil
}
