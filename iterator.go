package flodb

import (
	"context"

	"flodb/internal/kv"
)

// Iterator is a streaming cursor over a key range: position with First or
// Seek, advance with Next, read with Key and Value, then check Err and
// Close. Unlike Scan, an Iterator materializes nothing: pairs are read in
// place as the cursor moves, so ranges far larger than the memory
// component stream in O(1) space, and Key and Value are valid only until
// the cursor moves again — copy what you keep.
//
//	it, err := db.NewIterator(ctx, low, high)
//	if err != nil { ... }
//	defer it.Close()
//	for ok := it.First(); ok; ok = it.Next() {
//		use(it.Key(), it.Value())
//	}
//	if err := it.Err(); err != nil { ... }
//
// An iterator is one point-in-time view for its whole lifetime: every
// pair it returns was current at the single moment it was opened, however
// much is written, drained or flushed while it streams, and an iterator
// opened later sees the later state.
//
// This is where the store departs from the paper. FloDB's §4.4 scan
// (Algorithm 3) detects an in-place overwrite by its sequence number,
// restarts the scan, and after a few restarts falls back to blocking
// writers. Here the memory component keeps, for as long as a reader needs
// it, the version an overwrite displaced (a short per-key chain in the
// skiplist, the mechanism Snapshot introduced), so a reader resolves its
// own version and nothing restarts or blocks. The price is paid while an
// iterator is OPEN: it pins the sstables it reads (compaction cannot
// delete them) and the versions it needs stay chained in memory. Close
// releases both; an abandoned iterator holds them indefinitely (the
// network server expires idle cursors for that reason).
type Iterator = kv.Iterator

// NewIterator returns a streaming cursor over low <= key < high. Nil
// bounds are open; the bound slices are copied. The returned iterator is
// not safe for concurrent use, but any number of iterators may run
// concurrently with each other and with updates. Close must be called.
//
// Opening seals the Membuffer — time proportional to the entries resident
// in it, during which writers that miss the hash table wait — and then
// the cursor never holds a writer up. See Iterator for the consistency
// contract and for what an open iterator pins.
//
// The context is captured by the iterator: every positioning call checks
// it, so canceling it (or a deadline expiring) makes the next positioning
// call return false with the context error in Err — a slow consumer can
// always be cut off promptly.
func (db *DB) NewIterator(ctx context.Context, low, high []byte) (Iterator, error) {
	return db.inner.NewIterator(ctx, low, high)
}
