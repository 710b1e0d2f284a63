package core

import (
	"context"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/rcu"
	"flodb/internal/skiplist"
	"flodb/internal/storage"
	"flodb/internal/wal"
)

// apply is the engine's batch policy behind the Front's Apply: the whole
// batch is ONE WAL record (kv.EncodeBatchRecord), so the log's per-record
// CRC framing guarantees that after a crash either every operation
// replays or none does — and under DurabilitySync the batch costs a single
// group-committed fsync, amortized across its operations the way the
// paper's drain threads amortize skiplist traversals across a multi-insert
// batch (§4.2).
//
// The memory-component application runs under drainMu, which serializes it
// with generation switches (persist seals and view pins).
// That exclusion is what makes the per-op routing safe: with no immutable
// Membuffer in existence and no switch in flight, an operation either
// completes in the Membuffer (in-place update or insert) or — only when
// its key is absent from the Membuffer and the target bucket is full —
// goes directly into the Memtable as part of one multi-insert holding a
// contiguous sequence range, without ever being shadowed by a staler
// Membuffer entry (the Get freshness invariant of Algorithm 2).
//
// Visibility: range reads never observe a partial batch. A view's
// sequence bound is drawn under drainMu too, so the whole batch is on one
// side of it: a view pinned before skips every batch entry, one pinned
// after drains the Membuffer first and sees every entry. Point Gets racing
// with Apply may observe a prefix of the batch — the atomicity contract is
// about durability and scans, not read isolation.
//
// The fsync wait of a Sync-class batch runs in the Front, AFTER drainMu is
// released: holding the store's switch/scan lock across a disk barrier
// would hand every scanner and the persister the fsync's latency.
func (db *DB) apply(ctx context.Context, b *kv.Batch, d kv.Durability) (*wal.Writer, int64, error) {
	var st storage.Stall
	if err := db.admit(ctx, &st); err != nil {
		return nil, 0, err
	}
	db.NoteStall(&st)
	h := db.handle()
	defer db.putHandle(h)
	return db.applyLocked(ctx, h, b, d)
}

// applyLocked logs and applies the batch under drainMu, returning the
// commit-record position for a Sync-class caller to group-commit.
func (db *DB) applyLocked(ctx context.Context, h *rcu.Handle, b *kv.Batch, d kv.Durability) (*wal.Writer, int64, error) {
	db.drainMu.Lock()
	defer db.drainMu.Unlock()
	if err := db.Check(ctx); err != nil {
		return nil, 0, err
	}

	// Under drainMu, pauseWriters is stably false and immGen stably nil:
	// both are only set by drainMu holders and cleared before release. The
	// RCU read section still brackets the mutation so a switch that starts
	// right after we release the lock synchronizes behind us.
	h.Enter()
	defer h.Exit()

	g := db.gen.Load()
	var syncW *wal.Writer
	var syncOff int64
	if d != kv.DurabilityNone {
		off, err := g.mtb.wal.Append(kv.EncodeBatchRecord(b))
		if err != nil {
			return nil, 0, err
		}
		syncW, syncOff = g.mtb.wal, off
	}

	ops := b.Ops()
	var direct []skiplist.KV
	for i := range ops {
		op := &ops[i]
		tomb := op.Kind == keys.KindDelete
		val := op.Value
		if tomb {
			val = tombstoneMarker
		}
		if g.mbf != nil {
			if ok, inPlace := g.mbf.Put(op.Key, val, tomb); ok {
				db.stats.membufferHits.Add(1)
				if inPlace {
					db.stats.inPlaceHits.Add(1)
				}
				continue
			}
		}
		direct = append(direct, skiplist.KV{Key: op.Key, Entry: &skiplist.Entry{Value: val, Tombstone: tomb}})
	}
	if len(direct) > 0 {
		// One contiguous sequence range for the whole spill, assigned in
		// batch order so a later op on the same key wins the multi-insert.
		end := db.seq.Add(uint64(len(direct)))
		start := end - uint64(len(direct)) + 1
		for i := range direct {
			direct[i].Entry.Seq = start + uint64(i)
		}
		g.mtb.multiInsert(direct)
		db.stats.memtableWrites.Add(uint64(len(direct)))
	}
	if g.mtb.approxBytes() >= db.memtableTarget {
		db.signalPersist()
	}
	return syncW, syncOff, nil
}
