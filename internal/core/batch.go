package core

import (
	"context"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/skiplist"
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
	if db.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := db.loadPersistErr(); err != nil {
		return err
	}
	d, err := db.resolveDurability(opts)
	if err != nil {
		return err
	}
	if b == nil || b.Len() == 0 {
		return nil
	}
	db.stats.batches.Add(1)
	db.stats.batchOps.Add(uint64(b.Len()))

	if err := db.applyBackpressure(ctx); err != nil {
		return err
	}

	var applyStart time.Time
	if t := db.tel; t != nil {
		applyStart = time.Now()
		defer func() { t.batchLat.Observe(time.Since(applyStart)) }()
	}
	syncW, syncOff, err := db.applyLocked(b, d)
	if err != nil {
		return err
	}
	// The fsync wait of a Sync-class batch runs AFTER drainMu is
	// released: the batch is already applied and logged, and holding the
	// store's switch/scan lock across a disk barrier would hand every
	// scanner and the persister the fsync's latency.
	if d == kv.DurabilitySync {
		return db.commitSync(syncW, syncOff, 1)
	}
	return nil
}

// applyBackpressure waits out memory-component and L0 backpressure
// before a batch application, mirroring update's slow path: a full
// Memtable with a pending persist, a badly overshot Memtable, and an
// overloaded L0 all stall the caller. Each lap is a cancellation point —
// this wait is unbounded — and the stalled time counts in
// stats.stallNanos, exactly as per-op writes do.
func (db *DB) applyBackpressure(ctx context.Context) error {
	var stallStart time.Time
	defer func() { db.noteStall(stallStart) }()
	for spins := 0; ; spins++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if db.closed.Load() {
			return ErrClosed
		}
		if err := db.loadPersistErr(); err != nil {
			return err
		}
		g := db.gen.Load()
		if over := g.mtb.approxBytes(); over > db.memtableTarget {
			db.signalPersist()
			if db.immMtb.Load() != nil || over > 2*db.memtableTarget {
				if stallStart.IsZero() {
					stallStart = time.Now()
				}
				db.backoff(spins)
				continue
			}
		}
		if db.store != nil && db.store.NeedsStall() {
			db.store.MaybeScheduleCompaction()
			if stallStart.IsZero() {
				stallStart = time.Now()
			}
			db.backoff(spins)
			continue
		}
		return nil
	}
}

// ResolveDurability folds per-op write options over the store's default
// durability class, rejecting logged classes on a store with no log.
// Committer pipelines resolve at enqueue time — grouping enqueued
// operations into durability runs needs the resolved class before the
// engine sees the op.
func (db *DB) ResolveDurability(opts ...kv.WriteOption) (kv.Durability, error) {
	return db.resolveDurability(opts)
}

// CommitBatch is the committer-pipeline commit primitive: it applies b
// exactly like Apply — one WAL record, one drainMu hold, one RCU read
// section, one multi-insert for the Memtable spill — but attributes the
// batch as the puts individual Puts and deletes individual Deletes it
// coalesced, not as one logical batch. The sharded engine's per-shard
// committers drain their queues into CommitBatch calls, so a write storm
// pays the per-operation bookkeeping (stats, WAL framing, lock and RCU
// transitions) once per drained group instead of once per op, while
// Stats still counts what callers actually did.
//
// d must already be resolved (ResolveDurability); batch entries commit
// under that one class. Under DurabilitySync the call returns after one
// group-committed fsync covers the whole group.
func (db *DB) CommitBatch(ctx context.Context, b *kv.Batch, d kv.Durability, puts, deletes uint64) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := db.loadPersistErr(); err != nil {
		return err
	}
	if b == nil || b.Len() == 0 {
		return nil
	}
	db.stats.puts.Add(puts)
	db.stats.deletes.Add(deletes)
	if err := db.applyBackpressure(ctx); err != nil {
		return err
	}
	var start time.Time
	if db.tel != nil {
		start = time.Now()
	}
	syncW, syncOff, err := db.applyLocked(b, d)
	if err != nil {
		return err
	}
	if d == kv.DurabilitySync {
		if err := db.commitSync(syncW, syncOff, puts+deletes); err != nil {
			return err
		}
	}
	if t := db.tel; t != nil {
		// Each coalesced op records the group's commit latency in its
		// own op histogram — the engine-side cost its caller paid,
		// excluding queue wait — so the per-op quantiles keep counting
		// ops whether they arrived solo or pipelined.
		el := time.Since(start)
		t.batchLat.Observe(el)
		for i := uint64(0); i < puts; i++ {
			t.putLat.Observe(el)
		}
		for i := uint64(0); i < deletes; i++ {
			t.deleteLat.Observe(el)
		}
	}
	return nil
}

// CommitOne is CommitBatch's singleton form: a committer pipeline whose
// drain produced a run of one op skips the batch arena and the drainMu
// hold and routes the op through the same Membuffer-first update path a
// direct Put takes — restoring the paper's lock-free fast path for an
// uncontended shard. key and value are cloned here, exactly as
// Put/Delete clone; d must already be resolved.
func (db *DB) CommitOne(ctx context.Context, key, value []byte, tombstone bool, d kv.Durability) error {
	if tombstone {
		db.stats.deletes.Add(1)
		value = tombstoneMarker
	} else {
		db.stats.puts.Add(1)
		value = keys.Clone(value)
	}
	if t := db.tel; t != nil {
		start := time.Now()
		err := db.update(ctx, keys.Clone(key), value, tombstone, d)
		if tombstone {
			t.deleteLat.Observe(time.Since(start))
		} else {
			t.putLat.Observe(time.Since(start))
		}
		return err
	}
	return db.update(ctx, keys.Clone(key), value, tombstone, d)
}

// applyLocked logs and applies the batch under drainMu, returning the
// commit-record position for a Sync-class caller to group-commit.
func (db *DB) applyLocked(b *kv.Batch, d kv.Durability) (*wal.Writer, int64, error) {
	db.drainMu.Lock()
	defer db.drainMu.Unlock()
	if db.closed.Load() {
		return nil, 0, ErrClosed
	}

	// Under drainMu, pauseWriters is stably false and immGen stably nil:
	// both are only set by drainMu holders and cleared before release. The
	// RCU read section still brackets the mutation so a switch that starts
	// right after we release the lock synchronizes behind us.
	h := db.handle()
	defer db.putHandle(h)
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
