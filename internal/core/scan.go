package core

import (
	"context"
	"time"

	"flodb/internal/kv"
)

// Scan returns all pairs with low <= key < high (nil bounds are open),
// copied out of one point-in-time view (pinView): it is linearizable with
// respect to updates, the linearization point being the view's sequence
// bound. Scan is a convenience wrapper that materializes an iterator;
// prefer NewIterator for large or unbounded ranges.
func (db *DB) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db.stats.Scans.Add(1)
	start := time.Now()
	it, err := db.openIter(ctx, low, high, db.pinView())
	if err != nil {
		return nil, err
	}
	pairs, err := kv.Collect(it)
	if err == nil {
		db.stats.scanLat.Observe(time.Since(start))
	}
	return pairs, err
}
