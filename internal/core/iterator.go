package core

import (
	"context"

	"flodb/internal/kv"
)

// NewIterator returns a streaming cursor over low <= key < high (nil
// bounds are open). The range is never materialized: pairs are read
// straight out of the Memtables and each sstable source's read window as
// the cursor moves, so iterating a range larger than the memory component
// costs O(1) memory, and Key and Value alias that memory — they are valid
// until the cursor moves. What an iterator reads from disk never enters
// the read cache (Gets fill it, with rows), nor is it looked for there.
//
// Consistency: the iterator is ONE point-in-time view for its whole
// lifetime, taken by pinView when it opens — every pair it returns was
// current at that single moment, whatever is written, drained or persisted
// while it is open. Opening costs a Membuffer seal (time proportional to
// the entries resident in the Membuffer), which pauses slow-path writers
// only for its grace period; nothing restarts and no writer is blocked
// while the cursor streams. In exchange an OPEN iterator pins the
// sstables of the Version it read from (compaction cannot delete them)
// and keeps the versions its bound needs chained beneath later
// overwrites, until Close: close iterators promptly, and bound abandoned
// ones the way the server's lease janitor does. The handle is
// storage.Reader's, the one every engine shares.
//
// The context is captured by the iterator: every positioning call checks
// it, so a canceled or expired context stops iteration promptly with the
// context error in Err.
func (db *DB) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if err := db.check(ctx); err != nil {
		return nil, err
	}
	db.stats.Iterators.Add(1)
	return db.reads.NewIterator(ctx, db.pinView(), low, high)
}
