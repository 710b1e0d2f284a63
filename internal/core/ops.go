package core

import (
	"context"
	"runtime"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/rcu"
	"flodb/internal/skiplist"
	"flodb/internal/storage"
	"flodb/internal/wal"
)

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

// get is Algorithm 2's Get, the engine's answer to the Front's Get:
// search MBF, IMM_MBF, MTB, IMM_MTB, DISK in order and return the first
// occurrence — the levels are checked in the direction of data flow, so
// the first hit is the freshest. It pays only for the component that
// holds the key. The key is hashed once (keys.Hash), for every component.
// In order:
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
func (db *DB) get(key []byte) ([]byte, bool, error) {
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

// update is Algorithm 2's Put, the engine's write policy behind the
// Front's Put and Delete. The fast path tries the Membuffer; if the target
// bucket is full (or the buffer is disabled) the update goes directly to
// the Memtable once admit lets it in. key and value belong to the caller:
// every component that keeps them copies them — the WAL append and the
// Membuffer copy into memory of their own (a Membuffer pair holds key and
// value in one allocation), and a write that falls through to the
// Memtable copies the key into the skiplist's arena and clones the value
// for its entry. A delete writes tombstoneMarker (§3.2).
//
// Durability routing: DurabilityNone skips the WAL append entirely;
// Buffered appends and returns; Sync appends, completes the memory-
// component insert, and returns its commit record for the Front to wait
// on — OUTSIDE the RCU read section, so a stalled disk barrier never
// delays a generation switch's grace period.
func (db *DB) update(ctx context.Context, kind keys.Kind, key, value []byte, d kv.Durability) (*wal.Writer, int64, error) {
	tombstone := kind == keys.KindDelete
	if tombstone {
		value = tombstoneMarker
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
				return nil, 0, err
			}
			syncW, syncOff = g.mtb.wal, off
		}
		if ok, inPlace := g.mbf.PutHashed(key, hash, value, tombstone); ok {
			h.Exit()
			db.stats.membufferHits.Add(1)
			if inPlace {
				db.stats.inPlaceHits.Add(1)
			}
			return syncW, syncOff, nil
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
	var st storage.Stall
	value = keys.Clone(value)
	for {
		if err := db.admit(ctx, &st); err != nil {
			return nil, 0, err
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
				return nil, 0, err
			}
			syncW, syncOff = g.mtb.wal, off
		}
		seq := db.seq.Add(1)
		g.mtb.insert(key, hash, &skiplist.Entry{Value: value, Seq: seq, Tombstone: tombstone})
		h.Exit()
		db.stats.memtableWrites.Add(1)
		db.NoteStall(&st)
		if g.mtb.approxBytes() >= db.memtableTarget {
			db.signalPersist()
		}
		return syncW, syncOff, nil
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
// (NoteStall).
func (db *DB) admit(ctx context.Context, st *storage.Stall) error {
	for spins := 0; ; spins++ {
		err := db.Check(ctx)
		if err == nil {
			err = db.BackgroundErr()
		}
		if err != nil {
			db.NoteStall(st)
			return err
		}
		if db.pauseWriters.Load() {
			st.Wait(storage.StallSeal)
			runtime.Gosched()
			continue
		}
		cause, wait := db.backpressure()
		if !wait {
			return nil
		}
		st.Wait(cause)
		db.backoff(spins)
	}
}

// backpressure reports whether a writer must wait before it writes to the
// Memtable, and on what: the Memtable or the L0 backlog.
func (db *DB) backpressure() (storage.StallCause, bool) {
	if over := db.gen.Load().mtb.approxBytes(); over > db.memtableTarget {
		db.signalPersist()
		if db.immMtb.Load() != nil || over > 2*db.memtableTarget {
			return storage.StallMemtable, true
		}
	}
	if db.store != nil && db.store.NeedsStall() {
		db.store.MaybeScheduleCompaction()
		return storage.StallL0, true
	}
	return 0, false
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
