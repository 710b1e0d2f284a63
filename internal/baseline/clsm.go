package baseline

import (
	"context"
	"sync"
	"sync/atomic"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/wal"
)

// CLSM models the cLSM algorithm as integrated into RocksDB
// ("RocksDB/cLSM" in the paper's figures). Per §2.2/§6: "cLSM replaces the
// global mutex lock with a global reader-writer lock and uses a concurrent
// memory component. Thus, operations can proceed in parallel, but need to
// block at the start and end of each concurrent compaction", and it
// removes "any blocking synchronization from the read-only path".
//
//   - Gets and Scans: lock-free view capture (atomic pointer + atomic
//     sequence counter), no global lock at all.
//   - Puts: take the read side of the global RWMutex; proceed in parallel.
//   - Memtable switch (start of a memory-to-disk compaction): takes the
//     write side, blocking all writers — the bottleneck the paper notes
//     ("system scalability is still impaired by the use of global
//     shared-exclusive locks to coordinate between updates and background
//     disk writes").
type CLSM struct {
	base
	rw sync.RWMutex
	// view is the lock-free read snapshot, replaced under rw's write side.
	view atomic.Pointer[clsmView]
	// seq is allocated atomically (no lock on the write path beyond rw's
	// read side).
	seq atomic.Uint64
}

type clsmView struct {
	mem *memHandle
	imm *memHandle
}

// NewCLSM opens a RocksDB/cLSM-style store.
func NewCLSM(cfg Config) (*CLSM, error) {
	if cfg.Storage.CompactionThreads == 0 {
		cfg.Storage.CompactionThreads = 3
	}
	db := &CLSM{}
	if err := db.init(cfg); err != nil {
		return nil, err
	}
	db.seq.Store(db.lastSeq)
	db.view.Store(&clsmView{mem: db.mem})
	return db, nil
}

func (db *CLSM) write(ctx context.Context, kind keys.Kind, key, value []byte, opts []kv.WriteOption) error {
	if db.closed.Load() {
		return ErrClosedBaseline
	}
	if err := db.loadFlushErr(); err != nil {
		return err
	}
	d, err := db.resolveDurability(opts)
	if err != nil {
		return err
	}
	for {
		// The switchOrWait loop can block behind a slow flush; every lap
		// is a cancellation point.
		if err := ctx.Err(); err != nil {
			return err
		}
		db.rw.RLock()
		v := db.view.Load()
		if v.mem.mem.ApproxBytes() >= db.cfg.MemBytes {
			db.rw.RUnlock()
			if err := db.switchOrWait(); err != nil {
				return err
			}
			continue
		}
		var w *wal.Writer
		var off int64
		if d != kv.DurabilityNone {
			if w, off, err = db.logRecord(v.mem, kind, key, value); err != nil {
				db.rw.RUnlock()
				return err
			}
		}
		seq := db.seq.Add(1)
		v.mem.mem.Insert(key, seq, kind, value)
		db.rw.RUnlock()
		// Group commit outside the RW lock: sync committers coalesce in
		// the commit queue instead of holding cLSM's writer side hostage
		// to the disk barrier.
		if d == kv.DurabilitySync {
			return db.commitSync(w, off)
		}
		return nil
	}
}

// switchOrWait seals the full memtable under the write lock (blocking all
// writers — cLSM's coordination point with background disk writes), or
// waits for the in-flight flush when one is already running.
func (db *CLSM) switchOrWait() error {
	db.rw.Lock()
	defer db.rw.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.loadFlushErr(); err != nil {
		return err
	}
	if db.mem.mem.ApproxBytes() < db.cfg.MemBytes {
		return nil // another writer already switched
	}
	for db.imm != nil {
		db.immCond.Wait()
		if err := db.loadFlushErr(); err != nil {
			return err
		}
	}
	db.lastSeq = db.seq.Load() // publish for the flush edit
	if err := db.switchMemLocked(); err != nil {
		return err
	}
	db.view.Store(&clsmView{mem: db.mem, imm: db.imm})
	return nil
}

// Put proceeds under the read side of the global RW lock.
func (db *CLSM) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	db.ops.Puts.Add(1)
	return db.write(ctx, keys.KindSet, key, value, opts)
}

// Delete writes a tombstone version.
func (db *CLSM) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	db.ops.Deletes.Add(1)
	return db.write(ctx, keys.KindDelete, key, nil, opts)
}

// Get is lock-free: atomic view capture, atomic snapshot sequence.
func (db *CLSM) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if db.closed.Load() {
		return nil, false, ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	db.ops.Gets.Add(1)
	v := db.view.Load()
	snap := db.seq.Load()
	val, ok, err := db.getFrom(v.mem, v.imm, nil, snap, key)
	if err != nil || !ok {
		return nil, false, err
	}
	return keys.Clone(val), true, nil
}

// Scan is lock-free on the read path, snapshot-consistent via seq.
func (db *CLSM) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	if db.closed.Load() {
		return nil, ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db.ops.Scans.Add(1)
	v := db.view.Load()
	snap := db.seq.Load()
	return db.scanFrom(ctx, v.mem, v.imm, snap, low, high)
}

// NewIterator streams a pinned snapshot captured lock-free, like Get and
// Scan — no global lock on cLSM's read-only path.
func (db *CLSM) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if db.closed.Load() {
		return nil, ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db.ops.Iterators.Add(1)
	v := db.view.Load()
	snap := db.seq.Load()
	return db.newSnapshotIter(ctx, v.mem, v.imm, nil, snap, low, high, nil)
}

// Snapshot pins a repeatable-read view. Unlike the lock-free point-read
// path, the capture takes the write side of the global RW lock: writers
// allocate AND insert under the read side, so with the write side held no
// insert with seq <= the bound is still in flight — a lock-free capture
// could pin a sequence whose key pops into existence later, breaking the
// handle's repeatable-read contract. (This matches cLSM's design, which
// reserves the exclusive side for coordination points.)
func (db *CLSM) Snapshot(ctx context.Context) (kv.View, error) {
	if db.closed.Load() {
		return nil, ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db.rw.Lock()
	v := db.view.Load()
	snap := db.seq.Load()
	db.rw.Unlock()
	return db.newSnapshot(v.mem, v.imm, snap), nil
}

// Apply commits the batch under the read side of the global RW lock: the
// single WAL append makes recovery all-or-nothing, one contiguous
// sequence range orders its versions, and the write lock (taken only by
// memtable switches) guarantees the whole batch lands in one memtable
// generation.
//
// Visibility is weaker than the mutex-ordered baselines, faithfully to
// cLSM's design: the read path is lock-free (view pointer + seq counter,
// no lock at all), so a reader that captures its snapshot while the
// batch's inserts are in flight can observe a prefix of the batch. The
// mutex baselines allocate sequences and capture snapshots under one
// lock and never show partial batches. cLSM also shares write()'s
// pre-existing caveat that WAL append order and sequence order are not
// atomic across concurrent writers, so recovery's replay order may
// resolve a same-key race differently than pre-crash readers saw.
func (db *CLSM) Apply(ctx context.Context, b *kv.Batch, opts ...kv.WriteOption) error {
	if db.closed.Load() {
		return ErrClosedBaseline
	}
	if err := db.loadFlushErr(); err != nil {
		return err
	}
	d, err := db.resolveDurability(opts)
	if err != nil {
		return err
	}
	if b == nil || b.Len() == 0 {
		return nil
	}
	db.ops.Batches.Add(1)
	db.ops.BatchOps.Add(uint64(b.Len()))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		db.rw.RLock()
		v := db.view.Load()
		if v.mem.mem.ApproxBytes() >= db.cfg.MemBytes {
			db.rw.RUnlock()
			if err := db.switchOrWait(); err != nil {
				return err
			}
			continue
		}
		var w *wal.Writer
		var off int64
		if d != kv.DurabilityNone && v.mem.wal != nil {
			if off, err = v.mem.wal.Append(kv.EncodeBatchRecord(b)); err != nil {
				db.rw.RUnlock()
				return err
			}
			w = v.mem.wal
		}
		// One contiguous range, reserved up front: a reader whose
		// snapshot predates the batch (snap < start) sees none of it.
		ops := b.Ops()
		end := db.seq.Add(uint64(len(ops)))
		start := end - uint64(len(ops)) + 1
		for i, op := range ops {
			v.mem.mem.Insert(op.Key, start+uint64(i), op.Kind, op.Value)
		}
		db.rw.RUnlock()
		// One group-committed barrier for the whole batch, outside the
		// RW lock.
		if d == kv.DurabilitySync {
			return db.commitSync(w, off)
		}
		return nil
	}
}

// Close flushes and shuts down.
func (db *CLSM) Close() error {
	db.mu.Lock()
	db.lastSeq = db.seq.Load()
	db.mu.Unlock()
	return db.closeCommon()
}

var _ kv.Store = (*CLSM)(nil)
