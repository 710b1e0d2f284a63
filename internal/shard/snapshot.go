package shard

import (
	"context"
	"fmt"
	"sync/atomic"

	"flodb/internal/kv"
)

// ErrSnapshotReleased wraps kv.ErrSnapshotReleased for reads on a closed
// cross-shard snapshot.
var ErrSnapshotReleased = fmt.Errorf("shard: %w", kv.ErrSnapshotReleased)

// snapView is a cross-shard repeatable-read handle: N per-shard snapshot
// views pinned under one write barrier, so together they are a single
// globally consistent cut. The handle captures the TOPOLOGY it was
// taken under — it routes through its own table, not the live store's,
// and holds a reference on each of that epoch's engines, so reads stay
// correct (and the engines stay open) across any number of later splits
// and merges. Close releases the views and the engine pins; a retired
// engine whose last pin drops is reclaimed then.
type snapView struct {
	s      *Store
	t      *table // the pinned epoch's routing
	views  []kv.View
	closed atomic.Bool
}

var _ kv.View = (*snapView)(nil)

func (v *snapView) check(ctx context.Context) error {
	if v.closed.Load() {
		return ErrSnapshotReleased
	}
	if v.s.closed.Load() {
		return ErrClosed
	}
	return ctx.Err()
}

// Get returns the value key had at the snapshot point, routed by the
// snapshot's own epoch.
func (v *snapView) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if err := v.check(ctx); err != nil {
		return nil, false, err
	}
	return v.views[v.t.shardFor(key)].Get(ctx, key)
}

// Scan materializes low <= key < high at the snapshot point, in global
// key order.
func (v *snapView) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	it, err := v.NewIterator(ctx, low, high)
	if err != nil {
		return nil, err
	}
	return kv.Collect(it)
}

// NewIterator streams the snapshot's range, merging the overlapping
// shards' pinned views on the caller's goroutine as the live iterator
// does. The iterator takes its own engine pins, so it stays
// valid if the handle is Closed mid-iteration — even if the engines
// have since been retired by a split.
func (v *snapView) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if err := v.check(ctx); err != nil {
		return nil, err
	}
	lo, hi := v.t.shardRange(low, high)
	// The handle's own pins keep refs positive, so acquire cannot fail.
	pinned := make([]*engine, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		v.t.engines[i].acquire()
		pinned = append(pinned, v.t.engines[i])
	}
	release := func() {
		for _, e := range pinned {
			e.release()
		}
	}
	subs := make([]kv.Iterator, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		it, err := v.views[i].NewIterator(ctx, low, high)
		if err != nil {
			for _, open := range subs {
				open.Close()
			}
			release()
			return nil, err
		}
		subs = append(subs, it)
	}
	return kv.Merge(subs, nil, release), nil
}

// Close releases every per-shard snapshot and the epoch's engine pins.
// Reads after Close return ErrSnapshotReleased. Idempotent.
func (v *snapView) Close() error {
	if v.closed.Swap(true) {
		return nil
	}
	var firstErr error
	for _, view := range v.views {
		if err := view.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, e := range v.t.engines {
		if err := e.release(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
