package core

import (
	"context"
	"time"

	"flodb/internal/keys"
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
	db.stats.scans.Add(1)
	var start time.Time
	t := db.tel
	if t != nil {
		start = time.Now()
	}
	it, err := db.openIter(ctx, low, high, db.pinView())
	if err != nil {
		return nil, err
	}
	pairs, err := collect(it)
	if err == nil && t != nil {
		t.scanLat.Observe(time.Since(start))
	}
	return pairs, err
}

// collect drains it into stable copies and closes it.
func collect(it kv.Iterator) ([]kv.Pair, error) {
	defer it.Close()
	var out []kv.Pair
	for ok := it.First(); ok; ok = it.Next() {
		out = append(out, kv.Pair{Key: keys.Clone(it.Key()), Value: keys.Clone(it.Value())})
	}
	return out, it.Err()
}
