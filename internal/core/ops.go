package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/rcu"
	"flodb/internal/skiplist"
	"flodb/internal/wal"
)

// ErrClosed is returned by operations on a closed DB. It wraps
// kv.ErrClosed, so errors.Is(err, kv.ErrClosed) holds.
var ErrClosed = fmt.Errorf("flodb: %w", kv.ErrClosed)

// tombstoneMarker is the special value FloDB writes for deletes (§3.2 "a
// delete is done by inserting a special tombstone value"). It never leaves
// the store: the public API reports deleted keys as absent.
var tombstoneMarker = []byte(nil)

// handle returns a pooled RCU reader handle; worker threads get an
// uncontended slot without per-op allocation.
func (db *DB) handle() *rcu.Handle {
	return db.handles.Get().(*rcu.Handle)
}

func (db *DB) putHandle(h *rcu.Handle) {
	db.handles.Put(h)
}

// Get implements Algorithm 2: search MBF, IMM_MBF, MTB, IMM_MTB, DISK in
// order and return the first occurrence — the levels are checked in the
// direction of data flow, so the first hit is the freshest. get lists what
// each step costs. The value returned is a copy: it belongs to the caller.
func (db *DB) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := db.get(ctx, key)
	db.stats.getLat.Observe(time.Since(start))
	return keys.Clone(v), ok, err
}

// get pays only for the component that holds the key. The key is hashed
// once (keys.Hash), for every component. In order:
//
//  1. Membuffer, then the sealed one if a seal is draining it into the
//     live Memtable: one bucket line each, tags compared before any key
//     (~50 ns).
//  2. Memtable, then the sealed Membuffer if a persist seal is draining it,
//     then the sealed Memtable if a flush is in flight: one word of the
//     generation's filter; a skiplist descent (~1.5 µs at 24 MiB) only if
//     the generation holds the key, or for the <1% the filter lets by.
//  3. Disk (Version.getAt), newest file first, and per file whose key range
//     covers the key: its filter, through the file's metadata — no table
//     handle; then the row cache — a hit returns the row, still no handle;
//     only then a pinned Reader, an index search, one block read into a
//     pooled buffer, a search in the block, and the row left in the cache.
//
// The value returned aliases store memory that is never written again (a
// Membuffer pair, a skiplist entry, a cached row).
func (db *DB) get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if db.closed.Load() {
		return nil, false, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	db.stats.gets.Add(1)

	h := keys.Hash(key)
	g := db.gen.Load()
	if g.mbf != nil {
		if v, tomb, ok := g.mbf.GetHashed(key, h); ok {
			if tomb {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	// The draining Membuffer sits just above the Memtable it drains into:
	// above the live one for a view seal, below it (above the
	// sealed one) for a persist seal, whose successor Memtable takes
	// writes while the drain runs.
	imm := db.immGen.Load()
	if imm != nil && imm.mtb == g.mtb {
		if v, tomb, ok := imm.mbf.GetHashed(key, h); ok {
			if tomb {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	if e, ok := g.mtb.get(key, h); ok {
		if e.Tombstone {
			return nil, false, nil
		}
		return e.Value, true, nil
	}
	if imm != nil && imm.mtb != g.mtb {
		if v, tomb, ok := imm.mbf.GetHashed(key, h); ok {
			if tomb {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	if imm := db.immMtb.Load(); imm != nil {
		if e, ok := imm.get(key, h); ok {
			if e.Tombstone {
				return nil, false, nil
			}
			return e.Value, true, nil
		}
	}
	if db.store == nil {
		return nil, false, nil
	}
	v, _, kind, ok, err := db.store.GetHashed(key, h)
	if err != nil {
		return nil, false, err
	}
	if !ok || kind == keys.KindDelete {
		return nil, false, nil
	}
	return v, true, nil
}

// Put inserts or overwrites key. The key and value are copied, so the
// caller may reuse its buffers immediately — the Membuffer retains both
// slices it is handed and a skiplist entry the value (only the key is
// copied into the skiplist's arena), so ownership must be taken here.
func (db *DB) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	db.stats.puts.Add(1)
	d, err := db.resolveDurability(opts)
	if err != nil {
		return err
	}
	start := time.Now()
	err = db.update(ctx, keys.Clone(key), keys.Clone(value), false, d)
	db.stats.putLat.Observe(time.Since(start))
	return err
}

// Delete writes a tombstone for key (§3.2: "a Put with a special tombstone
// value"). The key is copied.
func (db *DB) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	db.stats.deletes.Add(1)
	d, err := db.resolveDurability(opts)
	if err != nil {
		return err
	}
	start := time.Now()
	err = db.update(ctx, keys.Clone(key), tombstoneMarker, true, d)
	db.stats.deleteLat.Observe(time.Since(start))
	return err
}

// resolveDurability folds per-op options over the configured default and
// rejects logged classes on a store that has no log to back them.
func (db *DB) resolveDurability(opts []kv.WriteOption) (kv.Durability, error) {
	d := db.cfg.Durability
	if len(opts) > 0 {
		d = kv.ResolveWriteOptions(db.cfg.Durability, opts...).Durability
	}
	if !d.Valid() {
		return 0, fmt.Errorf("flodb: invalid durability %v", d)
	}
	if d != kv.DurabilityNone && (db.cfg.DisableWAL || db.store == nil) {
		return 0, fmt.Errorf("flodb: %v durability without a WAL: %w", d, kv.ErrNotSupported)
	}
	return d, nil
}

// commitSync is the commit point of a Sync-class write: it blocks until
// the group-commit queue covers the record appended at off. Durability is
// prefix-ordered: if a sealed generation's segment is still live, its tail
// is synced FIRST, so a Sync-acked write never survives a crash that loses
// an earlier acked write (no holes in commit order). A segment closed
// underneath us was retired by a completed persist, so its contents are
// durable through sstables and the barrier is satisfied.
func (db *DB) commitSync(w *wal.Writer, off int64) error {
	if w == nil {
		return nil
	}
	// persistCycle publishes immMtb before the new generation, so a
	// writer whose record landed in the successor segment is guaranteed
	// to see the sealed one here while it is still live.
	if imm := db.immMtb.Load(); imm != nil && imm.wal != nil && imm.wal != w {
		if err := imm.syncWAL(); err != nil {
			return err
		}
	}
	if err := w.SyncTo(off); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	return nil
}

// update is Algorithm 2's Put. The fast path tries the Membuffer; if the
// target bucket is full (or the buffer is disabled) the update goes
// directly to the Memtable once admit lets it in. key and value are owned
// by the store (Put/Delete clone at entry).
//
// Durability routing: DurabilityNone skips the WAL append entirely;
// Buffered appends and returns; Sync appends, completes the memory-
// component insert, and only then joins the group-commit queue — the
// fsync wait happens OUTSIDE the RCU read section, so a stalled disk
// barrier never delays a generation switch's grace period.
func (db *DB) update(ctx context.Context, key, value []byte, tombstone bool, d kv.Durability) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := db.loadPersistErr(); err != nil {
		return err
	}

	kind := keys.KindSet
	if tombstone {
		kind = keys.KindDelete
	}
	logged := d != kv.DurabilityNone
	hash := keys.Hash(key)
	// The last successful append is the op's commit record. The op is
	// logged once per segment it could land under: a lap or the slow path
	// appends again only when the pair it loaded logs to another segment
	// than the one that already has the record (replay applies both,
	// idempotently, and the later one alone reconstructs the op).
	var syncW *wal.Writer
	var syncOff int64

	h := db.handle()
	defer db.putHandle(h)

	// --- Fast path: complete in the Membuffer (Algorithm 2 lines 10–11).
	// A Put that finds its Membuffer frozen lost a race with a seal, and a
	// seal installs the successor before it freezes the old buffer: a second
	// lap completes in the successor instead of waiting out the seal.
	var g *generation
	for lap := 0; lap < 2; lap++ {
		h.Enter()
		g = db.gen.Load()
		if g.mbf == nil {
			h.Exit()
			break
		}
		if logged && g.mtb.wal != nil && g.mtb.wal != syncW {
			off, err := g.mtb.wal.AppendRecord(kind, key, value)
			if err != nil {
				h.Exit()
				return err
			}
			syncW, syncOff = g.mtb.wal, off
		}
		if ok, inPlace := g.mbf.PutHashed(key, hash, value, tombstone); ok {
			h.Exit()
			db.stats.membufferHits.Add(1)
			if inPlace {
				db.stats.inPlaceHits.Add(1)
			}
			if d == kv.DurabilitySync {
				return db.commitSync(syncW, syncOff)
			}
			return nil
		}
		sealed := g.mbf.Frozen()
		h.Exit()
		if !sealed {
			// Bucket full: fall through to the Memtable, which the record
			// above already covers unless the generation switches first.
			break
		}
	}

	// --- Slow path: write to the Memtable (Algorithm 2 lines 12–20), once
	// admit lets the writer in. stallStart times admit's waits; the total
	// is recorded once, whether the write then completes or gives up.
	// (Recorded by hand, not by defer: a second defer in a function with
	// this many returns stops the compiler open-coding the first, which
	// every fast-path Put runs.)
	var stallStart time.Time
	for {
		if err := db.admit(ctx, h, &stallStart); err != nil {
			return err
		}
		// The correctness gate: a seal that set pauseWriters after admit
		// looked is either visible here or waits out this read section.
		h.Enter()
		if db.pauseWriters.Load() {
			h.Exit()
			continue
		}
		g = db.gen.Load()
		if logged && g.mtb.wal != nil && g.mtb.wal != syncW {
			off, err := g.mtb.wal.AppendRecord(kind, key, value)
			if err != nil {
				h.Exit()
				return err
			}
			syncW, syncOff = g.mtb.wal, off
		}
		seq := db.seq.Add(1)
		g.mtb.insert(key, hash, &skiplist.Entry{Value: value, Seq: seq, Tombstone: tombstone})
		h.Exit()
		db.stats.memtableWrites.Add(1)
		db.noteStall(stallStart)
		if g.mtb.approxBytes() >= db.memtableTarget {
			db.signalPersist()
		}
		if d == kv.DurabilitySync {
			return db.commitSync(syncW, syncOff)
		}
		return nil
	}
}

// admit is the one writer admission policy, for update's slow path and
// for Apply, applied before a write that may reach the Memtable. Each lap
// re-checks the context and the store's liveness, because the waits are
// unbounded: a writer stalled on backpressure must not be stranded when
// the store dies under it. In order, a lap:
//
//   - helps drain while a seal has paused writers (the sealed Membuffer
//     must be in the Memtable before writers touch it);
//   - waits for the persisting thread when the Memtable is full and the
//     previous one is still being written ("typically a very short wait",
//     §4.4), or when it has overshot its target twice over (the persister
//     has not switched yet);
//   - waits while L0 is overloaded, nudging a compaction.
//
// The first wait sets *stallStart. A failed admission records the stall
// here; an admitted writer records it once its write is in (noteStall).
func (db *DB) admit(ctx context.Context, h *rcu.Handle, stallStart *time.Time) error {
	for spins := 0; ; spins++ {
		err := ctx.Err()
		if err == nil && db.closed.Load() {
			err = ErrClosed
		}
		if err == nil {
			err = db.loadPersistErr()
		}
		if err != nil {
			db.noteStall(*stallStart)
			return err
		}
		if db.pauseWriters.Load() {
			if stallStart.IsZero() {
				*stallStart = time.Now()
			}
			if !db.helpPublishedDrain(h) {
				runtime.Gosched()
			}
			continue
		}
		var wait bool
		if over := db.gen.Load().mtb.approxBytes(); over > db.memtableTarget {
			db.signalPersist()
			wait = db.immMtb.Load() != nil || over > 2*db.memtableTarget
		}
		if !wait && db.store != nil && db.store.NeedsStall() {
			db.store.MaybeScheduleCompaction()
			wait = true
		}
		if !wait {
			return nil
		}
		if stallStart.IsZero() {
			*stallStart = time.Now()
		}
		db.backoff(spins)
	}
}

// noteStall records a writer's stall, if start says it had one: waiting
// out a drain, a full Memtable or an L0 backlog.
func (db *DB) noteStall(start time.Time) {
	if start.IsZero() {
		return
	}
	stall := time.Since(start)
	db.stats.stallNanos.Add(uint64(stall))
	db.stats.stallLat.Observe(stall)
}

// helpPublishedDrain moves one batch of the published full drain, if
// there is one. The task is loaded and used inside one RCU read section —
// the reference to the sealed buffer never outlives it, which is the
// invariant sealMembuffer's recycling rests on.
func (db *DB) helpPublishedDrain(h *rcu.Handle) bool {
	h.Enter()
	defer h.Exit()
	t := db.fullDrain.Load()
	if t == nil {
		return false
	}
	db.hook(hookHelperLoaded)
	db.stats.helpDrains.Add(1)
	return db.helpDrain(t)
}

// backoff yields, escalating to short sleeps so stalled writers don't
// burn a core while the persister catches up.
func (db *DB) backoff(spins int) {
	if spins < 32 {
		runtime.Gosched()
		return
	}
	time.Sleep(50 * time.Microsecond)
}

func (db *DB) signalPersist() {
	select {
	case db.persistCh <- struct{}{}:
	default:
	}
}
