package cluster

import (
	"context"
	"fmt"
	"sync/atomic"

	"flodb/internal/kv"
)

// clusterView is a cluster-wide repeatable read: one pinned engine view
// per member, taken by Snapshot while every member was up. Reads merge
// the member views newest-version-wins — deterministically, because
// pinned views never change — so the handle replays the same answers
// forever regardless of later writes, repairs, or hint replays.
type clusterView struct {
	c        *Client
	views    []kv.View // indexed like c.nodes
	released atomic.Bool
}

func (v *clusterView) checkOpen() error {
	if v.released.Load() {
		return fmt.Errorf("cluster: %w", kv.ErrSnapshotReleased)
	}
	return nil
}

// Get consults the key's owners' pinned views and answers from the
// newest version (tombstones and absence read as not-found).
func (v *clusterView) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if err := v.checkOpen(); err != nil {
		return nil, false, err
	}
	var copies [][]byte
	for _, oi := range v.c.ring.Owners(key) {
		raw, ok, err := v.views[oi].Get(ctx, key)
		if err != nil {
			return nil, false, err
		}
		if ok {
			copies = append(copies, raw)
		}
	}
	if len(copies) == 0 {
		return nil, false, nil
	}
	if val, live := newestLive(copies); live {
		return val, true, nil
	}
	return nil, false, nil
}

func (v *clusterView) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	it, err := v.NewIterator(ctx, low, high)
	if err != nil {
		return nil, err
	}
	return kv.Collect(it)
}

func (v *clusterView) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if err := v.checkOpen(); err != nil {
		return nil, err
	}
	srcs := make([]kv.Iterator, 0, len(v.views))
	for _, mv := range v.views {
		it, err := mv.NewIterator(ctx, low, high)
		if err != nil {
			for _, s := range srcs {
				s.Close()
			}
			return nil, err
		}
		srcs = append(srcs, it)
	}
	return kv.Merge(srcs, newestLive), nil
}

func (v *clusterView) Close() error {
	if v.released.Swap(true) {
		return nil
	}
	var firstErr error
	for _, mv := range v.views {
		if err := mv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

var _ kv.View = (*clusterView)(nil)
