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
	start := opClock()
	v, ok, err := db.get(ctx, key)
	db.stats.getLat.Observe(opClock() - start)
	return keys.Clone(v), ok, err
}

// clockBase anchors opClock.
var clockBase = time.Now()

// opClock is the clock the op latency histograms read: time since
// clockBase, one read of the monotonic clock (time.Now reads the wall
// clock too).
func opClock() time.Duration { return time.Since(clockBase) }

// get pays only for the component that holds the key. The key is hashed
// once (keys.Hash), for every component. In order:
//
//  1. Membuffer: one bucket line, tags compared before any key (~50 ns).
//  2. The retired Membuffer, if a seal is draining it, then the Memtable:
//     one bucket line, then one word of the generation's filter and a
//     skiplist descent (~1.5 µs at 24 MiB) only if the generation holds
//     the key, or for the <1% the filter lets by. One rule orders the two:
//     the draining copy of a key beats a Memtable entry numbered at or
//     below the seal point (older, or the same copy already drained) and
//     loses to one above it (written after the switch). The draining
//     buffer is read first, in the direction the drain moves entries, so
//     a key in flight between the two is found in one or the other. A
//     lookup that a later seal overtakes is made again (getSealed).
//  3. The sealed Memtable if a flush is in flight: as the Memtable.
//  4. Disk (Version.getAt), newest file first, and per file whose key range
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
	db.stats.Gets.Add(1)

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
	if v, tomb, ok := db.getSealed(g, key, h); ok {
		if tomb {
			return nil, false, nil
		}
		return v, true, nil
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

// getSealed is get's step 2. A seal that starts while it looks may recycle
// the draining buffer or replace immSeal with its own point; the seal
// count catches that, and the lookup is made again.
func (db *DB) getSealed(g *generation, key []byte, h uint64) (v []byte, tomb, ok bool) {
	for {
		seals := db.seals.Load()
		v, tomb, ok = nil, false, false
		if imm := db.immGen.Load(); imm != nil {
			v, tomb, ok = imm.mbf.GetHashed(key, h)
		}
		e, newer := g.mtb.get(key, h)
		if newer && ok {
			db.hook(hookGetWeighing)
			newer = e.Seq > db.immSeal.Load()
		}
		if ok && db.seals.Load() != seals {
			continue
		}
		if newer {
			return e.Value, e.Tombstone, true
		}
		return v, tomb, ok
	}
}

// Put inserts or overwrites key. The store keeps no reference to key or
// value, so the caller may reuse its buffers as soon as Put returns: the
// WAL append and the Membuffer copy both into memory of their own (a
// Membuffer pair holds key and value in one allocation), and a write that
// falls through to the Memtable copies the key into the skiplist's arena
// and clones the value for its entry.
func (db *DB) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	db.stats.Puts.Add(1)
	d, err := db.resolveDurability(opts)
	if err != nil {
		return err
	}
	start := opClock()
	err = db.update(ctx, key, value, false, d)
	db.stats.putLat.Observe(opClock() - start)
	return err
}

// Delete writes a tombstone for key (§3.2: "a Put with a special tombstone
// value"). Like Put, it keeps no reference to key.
func (db *DB) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	db.stats.Deletes.Add(1)
	d, err := db.resolveDurability(opts)
	if err != nil {
		return err
	}
	start := opClock()
	err = db.update(ctx, key, tombstoneMarker, true, d)
	db.stats.deleteLat.Observe(opClock() - start)
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
// directly to the Memtable once admit lets it in. key and value belong to
// the caller: every component that keeps them copies them.
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
	// admit lets the writer in. st times admit's waits; they are recorded
	// once, whether the write then completes or gives up. (Recorded by
	// hand, not by defer: a second defer in a function with this many
	// returns stops the compiler open-coding the first, which every
	// fast-path Put runs.) The skiplist copies the key into its arena; the
	// entry keeps the value, so it gets a copy of its own.
	var st stall
	value = keys.Clone(value)
	for {
		if err := db.admit(ctx, &st); err != nil {
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
		db.noteStall(&st)
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
//   - yields while a seal has paused writers, for its grace period: cause
//     seal;
//   - waits for the persisting thread when the Memtable is full and the
//     previous one is still being written ("typically a very short wait",
//     §4.4), or when it has overshot its target twice over (the persister
//     has not switched yet): cause memtable;
//   - waits while L0 is overloaded, nudging a compaction: cause l0.
//
// Each wait is timed in st under its cause. A failed admission records
// the stall here; an admitted writer records it once its write is in
// (noteStall).
func (db *DB) admit(ctx context.Context, st *stall) error {
	for spins := 0; ; spins++ {
		err := ctx.Err()
		if err == nil && db.closed.Load() {
			err = ErrClosed
		}
		if err == nil {
			err = db.loadPersistErr()
		}
		if err != nil {
			db.noteStall(st)
			return err
		}
		if db.pauseWriters.Load() {
			st.wait(stallSeal)
			runtime.Gosched()
			continue
		}
		cause, wait := db.backpressure()
		if !wait {
			return nil
		}
		st.wait(cause)
		db.backoff(spins)
	}
}

// backpressure reports whether a writer must wait before it writes to the
// Memtable, and on what: the Memtable or the L0 backlog.
func (db *DB) backpressure() (stallCause, bool) {
	if over := db.gen.Load().mtb.approxBytes(); over > db.memtableTarget {
		db.signalPersist()
		if db.immMtb.Load() != nil || over > 2*db.memtableTarget {
			return stallMemtable, true
		}
	}
	if db.store != nil && db.store.NeedsStall() {
		db.store.MaybeScheduleCompaction()
		return stallL0, true
	}
	return 0, false
}

// stallCause is what a writer waited on in admit.
type stallCause uint8

const (
	stallSeal     stallCause = iota // a seal paused writers for its grace period
	stallMemtable                   // the Memtable is full or 2x over target
	stallL0                         // the L0 backlog stop
	numStallCauses
)

// stallCauseNames label flodb_write_stall_by_cause_nanoseconds_total.
var stallCauseNames = [numStallCauses]string{"seal", "memtable", "l0"}

// stall is one write's time in admit, by cause: the wait in progress began
// at mark (0: none yet) and is on cause; earlier waits are in nanos.
type stall struct {
	mark  time.Duration
	cause stallCause
	nanos [numStallCauses]time.Duration
}

// wait notes that the writer waits on c. The clock is read only when a
// wait starts or changes cause, not on every lap.
func (s *stall) wait(c stallCause) {
	if s.mark > 0 && s.cause == c {
		return
	}
	now := opClock()
	if s.mark > 0 {
		s.nanos[s.cause] += now - s.mark
	}
	s.mark, s.cause = now, c
}

// noteStall records a writer's stall, if st says it had one: the time
// under each cause, their total, and the total as one observation. The
// wait in progress counts up to now: to the write it held up.
func (db *DB) noteStall(st *stall) {
	if st.mark <= 0 {
		return
	}
	st.nanos[st.cause] += opClock() - st.mark
	var total time.Duration
	for c, d := range st.nanos {
		if d > 0 {
			db.stats.stallByCause[c].Add(uint64(d))
			total += d
		}
	}
	db.stats.stallNanos.Add(uint64(total))
	db.stats.stallLat.Observe(total)
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
