package baseline

import (
	"context"
	"sync"
	"sync/atomic"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/storage"
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
	err := db.init(cfg, policy{
		write:    db.write,
		apply:    db.apply,
		view:     db.loadView,
		snapView: db.exclusiveView,
	})
	if err != nil {
		return nil, err
	}
	db.seq.Store(db.lastSeq)
	db.view.Store(&clsmView{mem: db.mem})
	return db, nil
}

// enter takes the read side of the global RW lock on a memtable with
// room, sealing a full one or waiting out the flush in flight first. The
// caller releases the read side.
func (db *CLSM) enter(ctx context.Context) (*clsmView, error) {
	var st storage.Stall
	defer db.NoteStall(&st)
	for {
		// The switchOrWait loop can block behind a slow flush; every lap
		// is a cancellation point.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		db.rw.RLock()
		v := db.view.Load()
		if v.mem.mem.ApproxBytes() < db.cfg.MemBytes {
			return v, nil
		}
		db.rw.RUnlock()
		if err := db.switchOrWait(ctx, &st); err != nil {
			return nil, err
		}
	}
}

// write proceeds under the read side of the global RW lock.
func (db *CLSM) write(ctx context.Context, kind keys.Kind, key, value []byte, d kv.Durability) (*wal.Writer, int64, error) {
	v, err := db.enter(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer db.rw.RUnlock()
	w, off, err := v.mem.logRecord(d, kind, key, value)
	if err != nil {
		return nil, 0, err
	}
	v.mem.mem.Insert(key, db.seq.Add(1), kind, value)
	return w, off, nil
}

// switchOrWait seals the full memtable under the write lock (blocking all
// writers — cLSM's coordination point with background disk writes), or
// waits for the in-flight flush when one is already running, timing the
// wait in st.
func (db *CLSM) switchOrWait(ctx context.Context, st *storage.Stall) error {
	db.rw.Lock()
	defer db.rw.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.BackgroundErr(); err != nil {
		return err
	}
	if db.mem.mem.ApproxBytes() < db.cfg.MemBytes {
		return nil // another writer already switched
	}
	for db.imm != nil {
		if err := db.waitFlushLocked(ctx, st); err != nil {
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

// loadView is the lock-free read path: atomic view capture, atomic
// snapshot sequence — no global lock on cLSM's read-only path.
func (db *CLSM) loadView() (mem, imm *memHandle, snap uint64) {
	v := db.view.Load()
	return v.mem, v.imm, db.seq.Load()
}

// exclusiveView captures a Snapshot's bound. Unlike the lock-free point-
// read path, it takes the write side of the global RW lock: writers
// allocate AND insert under the read side, so with the write side held no
// insert with seq <= the bound is still in flight — a lock-free capture
// could pin a sequence whose key pops into existence later, breaking the
// handle's repeatable-read contract. (This matches cLSM's design, which
// reserves the exclusive side for coordination points.)
func (db *CLSM) exclusiveView() (mem, imm *memHandle, snap uint64) {
	db.rw.Lock()
	defer db.rw.Unlock()
	return db.loadView()
}

// apply commits the batch under the read side of the global RW lock: the
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
func (db *CLSM) apply(ctx context.Context, b *kv.Batch, d kv.Durability) (*wal.Writer, int64, error) {
	v, err := db.enter(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer db.rw.RUnlock()
	w, off, err := v.mem.logBatch(d, b)
	if err != nil {
		return nil, 0, err
	}
	// One contiguous range, reserved up front: a reader whose snapshot
	// predates the batch (snap < start) sees none of it.
	ops := b.Ops()
	end := db.seq.Add(uint64(len(ops)))
	start := end - uint64(len(ops)) + 1
	for i, op := range ops {
		v.mem.mem.Insert(op.Key, start+uint64(i), op.Kind, op.Value)
	}
	return w, off, nil
}

var _ kv.Store = (*CLSM)(nil)
