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

// Apply commits every mutation in b atomically.
//
// Durability and recovery are all-or-nothing: the whole batch is appended
// as ONE WAL record (kv.EncodeBatchRecord), so the log's per-record CRC
// framing guarantees that after a crash either every operation replays or
// none does — and under DurabilitySync the batch costs a single
// group-committed fsync, amortized across its operations the way the
// paper's drain threads amortize skiplist traversals across a
// multi-insert batch (§4.2).
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
func (db *DB) Apply(ctx context.Context, b *kv.Batch, opts ...kv.WriteOption) error {
	if err := db.check(ctx); err != nil {
		return err
	}
	if err := db.loadPersistErr(); err != nil {
		return err
	}
	d, err := storage.ResolveDurability(db.cfg.Durability, !db.cfg.DisableWAL, opts)
	if err != nil {
		return err
	}
	if b == nil || b.Len() == 0 {
		return nil
	}
	db.stats.Batches.Add(1)
	db.stats.BatchOps.Add(uint64(b.Len()))

	var st stall
	if err := db.admit(ctx, &st); err != nil {
		return err
	}
	db.noteStall(&st)
	h := db.handle()
	defer db.putHandle(h)

	start := opClock()
	defer func() { db.stats.batchLat.Observe(opClock() - start) }()
	syncW, syncOff, err := db.applyLocked(h, b, d)
	if err != nil {
		return err
	}
	// The fsync wait of a Sync-class batch runs AFTER drainMu is
	// released: the batch is already applied and logged, and holding the
	// store's switch/scan lock across a disk barrier would hand every
	// scanner and the persister the fsync's latency.
	if d == kv.DurabilitySync {
		return storage.CommitSync(db.sealedLog(), syncW, syncOff)
	}
	return nil
}

// applyLocked logs and applies the batch under drainMu, returning the
// commit-record position for a Sync-class caller to group-commit.
func (db *DB) applyLocked(h *rcu.Handle, b *kv.Batch, d kv.Durability) (*wal.Writer, int64, error) {
	db.drainMu.Lock()
	defer db.drainMu.Unlock()
	if db.closed.Load() {
		return nil, 0, ErrClosed
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
	if d != kv.DurabilityNone && g.mtb.wal != nil {
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
