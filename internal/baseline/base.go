package baseline

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/skiplist"
	"flodb/internal/storage"
	"flodb/internal/wal"
)

// Config parameterizes a baseline store.
type Config struct {
	Dir string
	// MemBytes is the memtable size that triggers a flush (the whole
	// memory component — baselines have a single in-memory level).
	MemBytes int64
	// DisableWAL skips commit logging entirely; every write is then
	// DurabilityNone and per-op logged classes fail with
	// kv.ErrNotSupported, as in FloDB. With the WAL on, a write that
	// names no class is Buffered.
	DisableWAL bool
	// Storage configures the shared disk component.
	Storage storage.Options
}

// maxMemBytes caps MemBytes by the rule core.MaxMemoryBytes states for
// FloDB's Memtable.
const maxMemBytes = skiplist.MaxArenaBytes / 8

func (c *Config) fillDefaults() error {
	if c.Dir == "" {
		return fmt.Errorf("baseline: Config.Dir is required")
	}
	if c.MemBytes < 0 {
		return fmt.Errorf("baseline: MemBytes %d is negative; want > 0 (or 0 for the 64 MiB default)", c.MemBytes)
	}
	if c.MemBytes == 0 {
		c.MemBytes = 64 << 20
	}
	if c.MemBytes > maxMemBytes {
		return fmt.Errorf("baseline: MemBytes %d exceeds %d, the most one memtable's skiplist arena can hold at twice its target", c.MemBytes, int64(maxMemBytes))
	}
	c.Storage.SizeBaseLevel(c.MemBytes)
	return nil
}

// memHandle pairs a memtable with its WAL generation.
type memHandle struct {
	mem    *skipMem
	wal    *wal.Writer
	walNum uint64
	// inserting counts writers that picked this handle under mu and insert
	// into it after releasing mu (reserveLocked). The flush waits for
	// them: such a writer can be descheduled across the switch that seals
	// the handle, and an insert landing after the flush had iterated the
	// memtable was an acknowledged write lost.
	inserting sync.WaitGroup
}

// log returns the handle's segment: nil for a nil handle or without a WAL.
func (h *memHandle) log() *wal.Writer {
	if h == nil {
		return nil
	}
	return h.wal
}

// logRecord appends one write's record to the handle's segment when its
// class d is logged, and returns where the record sits for a Sync-class
// commit to wait on.
func (h *memHandle) logRecord(d kv.Durability, kind keys.Kind, key, value []byte) (*wal.Writer, int64, error) {
	if d == kv.DurabilityNone || h.wal == nil {
		return nil, 0, nil
	}
	off, err := h.wal.Append(kv.EncodeRecord(kind, key, value))
	return h.wal, off, err
}

// logBatch is logRecord for a whole batch, which is one record: recovery
// replays it all or nothing.
func (h *memHandle) logBatch(d kv.Durability, b *kv.Batch) (*wal.Writer, int64, error) {
	if d == kv.DurabilityNone || h.wal == nil {
		return nil, 0, nil
	}
	off, err := h.wal.Append(kv.EncodeBatchRecord(b))
	return h.wal, off, err
}

// policy is all a variant adds to base: what its row in README's
// six-system table says. Everything else — the closed and context checks,
// the op counters, durability, the Sync-class commit, the read paths,
// flushes, and the log and read-view lifecycles it takes from
// internal/storage — is base's.
type policy struct {
	// write orders one update against the others and inserts it. It
	// returns the update's commit record, which base waits on for a
	// Sync-class write after every lock is released (nil when the variant
	// committed it itself).
	write func(ctx context.Context, kind keys.Kind, key, value []byte, d kv.Durability) (*wal.Writer, int64, error)
	// apply does the same for a non-empty batch.
	apply func(ctx context.Context, b *kv.Batch, d kv.Durability) (*wal.Writer, int64, error)
	// view captures the (mem, imm, seq) a Get, Scan or iterator reads.
	view func() (mem, imm *memHandle, snap uint64)
	// snapView captures a Snapshot's bound, excluding inserts still in
	// flight below it.
	snapView func() (mem, imm *memHandle, snap uint64)
	// endRead, when set, is the critical section every read ends with:
	// a point read's, and a pinned view's when its last reference drops.
	endRead func()
}

// base is the one implementation of the kv.Store contract the four
// variants share, over versioned memtables, a WAL segment per memtable
// (whose lifecycle internal/storage owns), flush scheduling, and reads
// through storage.Reader's bounded Get, iterator and snapshot handle.
// Locking POLICY lives in the variants' policy; base supplies the
// mechanism and calls the policy where the variants differ.
type base struct {
	cfg   Config
	store *storage.Store
	pol   policy
	// durability is the class of a write that names none.
	durability kv.Durability

	// mu guards the handles and lastSeq. The variants ALSO use it as
	// their "global mutex" where their design has one, which is exactly
	// the contention the paper measures.
	mu sync.Mutex
	// snapMu is the snapshot barrier for variants whose memtable inserts
	// run OUTSIDE mu (HyperLevelDB, RocksDB): writers hold the read side
	// from sequence allocation through insert completion, and Snapshot
	// takes the write side while capturing its bound — otherwise a handle
	// could pin a sequence covering an insert still in flight, and a key
	// would pop into existence inside a supposedly repeatable view. (Real
	// RocksDB avoids this by publishing the visible sequence only after
	// the memtable insert; the barrier is the model-sized equivalent.)
	snapMu  sync.RWMutex
	mem     *memHandle
	imm     *memHandle
	immCond *sync.Cond // waits for imm to clear (writer stall, §2.3)
	lastSeq uint64

	flushCh chan struct{}
	closing chan struct{}
	closed  atomic.Bool
	// wg counts the background goroutines: the flush loop and LevelDB's
	// write leader.
	wg       sync.WaitGroup
	flushErr atomic.Pointer[error]

	// walMetrics is shared by every WAL segment, so the acked-vs-durable
	// boundary spans memtable switches.
	walMetrics wal.Metrics

	// reg holds the operation counters (ops) and the views over the WAL
	// and disk component, under the metric names FloDB registers.
	reg *obs.Registry
	ops kv.OpCounters
	// reads is the read side the engines share: the bounded Get, and the
	// iterator and snapshot handles over a captured view.
	reads storage.Reader
}

func (b *base) init(cfg Config, pol policy) error {
	if err := cfg.fillDefaults(); err != nil {
		return err
	}
	durability, err := storage.DefaultDurability(kv.DurabilityDefault, !cfg.DisableWAL)
	if err != nil {
		return err
	}
	b.cfg, b.pol, b.durability = cfg, pol, durability
	store, err := storage.Open(cfg.Dir, cfg.Storage)
	if err != nil {
		return err
	}
	b.store = store
	b.reg = obs.NewRegistry()
	b.ops = kv.NewOpCounters(b.reg)
	b.reads = storage.Reader{Store: store, Check: b.check, Iterators: b.ops.Iterators}
	if pol.endRead != nil {
		b.reads.Release = func(uint64) { pol.endRead() }
	}
	storage.RegisterMetrics(b.reg, store, &b.walMetrics)
	b.lastSeq = store.LastSeq()
	b.immCond = sync.NewCond(&b.mu)
	b.flushCh = make(chan struct{}, 1)
	b.closing = make(chan struct{})

	if !cfg.DisableWAL {
		if b.lastSeq, err = store.RecoverLogs(func() storage.ReplayMem { return newSkipMem() }); err != nil {
			store.Close()
			return err
		}
	}
	if b.mem, err = b.newMemHandle(); err != nil {
		store.Close()
		return err
	}
	if !cfg.DisableWAL {
		if err := store.SetLogNum(b.mem.walNum, b.lastSeq); err != nil {
			store.Close()
			return err
		}
	}
	b.wg.Add(1)
	go b.flushLoop()
	return nil
}

func (b *base) newMemHandle() (*memHandle, error) {
	h := &memHandle{mem: newSkipMem()}
	if b.cfg.DisableWAL {
		return h, nil
	}
	var err error
	if h.walNum, h.wal, err = b.store.CreateLog(wal.Options{Metrics: &b.walMetrics}); err != nil {
		return nil, err
	}
	return h, nil
}

// check is the test every operation starts with.
func (b *base) check(ctx context.Context) error {
	if b.closed.Load() {
		return ErrClosedBaseline
	}
	return ctx.Err()
}

// --- Writes -------------------------------------------------------------------

// Put writes key through the variant's write policy.
func (b *base) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	b.ops.Puts.Add(1)
	return b.update(ctx, keys.KindSet, key, value, opts)
}

// Delete writes a tombstone version.
func (b *base) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	b.ops.Deletes.Add(1)
	return b.update(ctx, keys.KindDelete, key, nil, opts)
}

func (b *base) update(ctx context.Context, kind keys.Kind, key, value []byte, opts []kv.WriteOption) error {
	d, err := b.admit(ctx, opts)
	if err != nil {
		return err
	}
	w, off, err := b.pol.write(ctx, kind, key, value, d)
	return b.commit(d, w, off, err)
}

// Apply commits the batch atomically through the variant's batch policy.
// Atomicity falls out of the multi-versioned design: the batch is one WAL
// record, which recovery replays all-or-nothing, and one contiguous
// sequence range orders its versions.
func (b *base) Apply(ctx context.Context, batch *kv.Batch, opts ...kv.WriteOption) error {
	d, err := b.admit(ctx, opts)
	if err != nil {
		return err
	}
	if batch == nil || batch.Len() == 0 {
		return nil
	}
	b.ops.Batches.Add(1)
	b.ops.BatchOps.Add(uint64(batch.Len()))
	w, off, err := b.pol.apply(ctx, batch, d)
	return b.commit(d, w, off, err)
}

// admit is the test every write passes before the policy orders it, and
// resolves the write's durability class.
func (b *base) admit(ctx context.Context, opts []kv.WriteOption) (kv.Durability, error) {
	if err := b.check(ctx); err != nil {
		return 0, err
	}
	if err := b.loadFlushErr(); err != nil {
		return 0, err
	}
	return storage.ResolveDurability(b.durability, !b.cfg.DisableWAL, opts)
}

// commit is the commit point of a write the policy ordered without error.
// A Sync-class write waits for the barrier over its record here, outside
// every lock, so concurrent committers coalesce in the WAL's group-commit
// queue instead of serializing a global lock behind the disk — the shape
// of RocksDB's write group and of LevelDB's combined pass.
func (b *base) commit(d kv.Durability, w *wal.Writer, off int64, err error) error {
	if err != nil || d != kv.DurabilitySync {
		return err
	}
	return storage.CommitSync(b.sealedLog(), w, off)
}

// sealedLog is the segment of the sealed memtable a flush is writing, if
// any, which a Sync-class commit makes durable before the active one.
func (b *base) sealedLog() *wal.Writer {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.imm.log()
}

// insertLocked logs and inserts one write under mu (the LevelDB write
// leader), returning its commit record.
func (b *base) insertLocked(kind keys.Kind, key, value []byte, d kv.Durability) (*wal.Writer, int64, error) {
	w, off, err := b.mem.logRecord(d, kind, key, value)
	if err != nil {
		return nil, 0, err
	}
	b.lastSeq++
	b.mem.mem.Insert(key, b.lastSeq, kind, value)
	b.maybeScheduleFlushLocked()
	return w, off, nil
}

// reserveLocked is the part of a write that HyperLevelDB and RocksDB run
// under mu: the room check, the log append and the sequence number. The
// caller inserts into h after releasing mu, then calls h.inserting.Done.
func (b *base) reserveLocked(ctx context.Context, kind keys.Kind, key, value []byte, d kv.Durability) (h *memHandle, seq uint64, w *wal.Writer, off int64, err error) {
	if err = b.waitRoomLocked(ctx); err != nil {
		return nil, 0, nil, 0, err
	}
	if w, off, err = b.mem.logRecord(d, kind, key, value); err != nil {
		return nil, 0, nil, 0, err
	}
	b.lastSeq++
	b.mem.inserting.Add(1)
	return b.mem, b.lastSeq, w, off, nil
}

// applyLocked is the batch policy of the mutex-ordered variants (LevelDB,
// HyperLevelDB, RocksDB): one WAL record for the whole batch, then every
// operation inserted under the global mutex with consecutive sequence
// numbers, so no reader ever sees part of it.
func (b *base) applyLocked(ctx context.Context, batch *kv.Batch, d kv.Durability) (*wal.Writer, int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.waitRoomLocked(ctx); err != nil {
		return nil, 0, err
	}
	w, off, err := b.mem.logBatch(d, batch)
	if err != nil {
		return nil, 0, err
	}
	for _, op := range batch.Ops() {
		b.lastSeq++
		b.mem.mem.Insert(op.Key, b.lastSeq, op.Kind, op.Value)
	}
	b.maybeScheduleFlushLocked()
	return w, off, nil
}

// Sync is the durability barrier of the kv.Store contract: it blocks
// until every mutation acknowledged before the call is crash-durable,
// promoting the acked-but-buffered window with at most one group-
// committed fsync per live segment (sealed first, then active — prefix
// order). Without a WAL there is nothing buffered to promote.
func (b *base) Sync(ctx context.Context) error {
	if err := b.check(ctx); err != nil {
		return err
	}
	b.ops.SyncBarriers.Add(1)
	if b.cfg.DisableWAL {
		return nil
	}
	// A failed flush means sealed-segment records may be neither in
	// sstables nor syncable — don't claim a durable barrier over them.
	if err := b.loadFlushErr(); err != nil {
		return err
	}
	b.mu.Lock()
	mem, imm := b.mem, b.imm
	b.mu.Unlock()
	return storage.SyncLogs(imm.log(), mem.log())
}

// waitRoomLocked blocks (on mu) while the memtable is full and the
// previous one is still flushing — the writer delay of §2.3 — with a
// cancellation point at every cond wakeup. (A Wait in progress cannot be
// interrupted by the context; the flush loop's broadcast bounds the
// latency.)
func (b *base) waitRoomLocked(ctx context.Context) error {
	for b.mem.mem.ApproxBytes() >= b.cfg.MemBytes && b.imm != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := b.waitFlushLocked(); err != nil {
			return err
		}
	}
	if b.mem.mem.ApproxBytes() >= b.cfg.MemBytes && b.imm == nil {
		return b.switchMemLocked()
	}
	return nil
}

// waitFlushLocked waits on mu for the flush loop to retire imm. It fails
// instead when that wait could never end: the store is closed (stop wakes
// every waiter) or a flush failed (setFlushErr does).
func (b *base) waitFlushLocked() error {
	if b.closed.Load() {
		return ErrClosedBaseline
	}
	if err := b.loadFlushErr(); err != nil {
		return err
	}
	b.immCond.Wait()
	return nil
}

// switchMemLocked seals the current memtable and installs a fresh one.
// The sealed segment's staging buffer is flushed to the OS before the
// successor takes its first append, so the cross-segment replay order
// stays a clean prefix after a crash.
func (b *base) switchMemLocked() error {
	// Seal-flush first: if it fails, no successor handle (WAL file + fd)
	// has been created yet, so a persistently failing disk doesn't leak
	// one orphan segment per retry.
	if b.mem.wal != nil {
		if err := b.mem.wal.Flush(); err != nil {
			return err
		}
	}
	h, err := b.newMemHandle()
	if err != nil {
		return err
	}
	b.imm = b.mem
	b.mem = h
	select {
	case b.flushCh <- struct{}{}:
	default:
	}
	return nil
}

func (b *base) maybeScheduleFlushLocked() {
	if b.mem.mem.ApproxBytes() >= b.cfg.MemBytes && b.imm == nil {
		// Ignore the error here; the next write surfaces it.
		_ = b.switchMemLocked()
	}
}

func (b *base) flushLoop() {
	defer b.wg.Done()
	for {
		select {
		case <-b.closing:
			return
		case <-b.flushCh:
		}
		b.mu.Lock()
		imm := b.imm
		b.mu.Unlock()
		if imm == nil {
			continue
		}
		if err := b.flushHandle(imm); err != nil {
			b.setFlushErr(err)
			return
		}
		b.mu.Lock()
		b.imm = nil
		b.immCond.Broadcast()
		b.mu.Unlock()
	}
}

// flushHandle persists one sealed memtable and retires its segment.
func (b *base) flushHandle(h *memHandle) error {
	h.inserting.Wait() // h is sealed: no new inserter can pick it
	b.mu.Lock()
	next, lastSeq := b.mem.walNum, b.lastSeq
	b.mu.Unlock()
	return b.store.FlushLog(h.mem.NewIterator(), lastSeq, h.wal, h.walNum, next)
}

func (b *base) loadFlushErr() error {
	if p := b.flushErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (b *base) setFlushErr(err error) {
	if err != nil {
		b.flushErr.CompareAndSwap(nil, &err)
		b.mu.Lock()
		b.immCond.Broadcast()
		b.mu.Unlock()
	}
}

// --- Reads --------------------------------------------------------------------

// Get reads key at the view the policy captures.
func (b *base) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if err := b.check(ctx); err != nil {
		return nil, false, err
	}
	b.ops.Gets.Add(1)
	v, ok, err := b.reads.Get(readView(b.pol.view()), key)
	b.endRead()
	return v, ok, err
}

// Scan produces a snapshot scan at the view the policy captures: a
// drained iterator.
func (b *base) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	if err := b.check(ctx); err != nil {
		return nil, err
	}
	b.ops.Scans.Add(1)
	it, err := b.reads.NewIterator(ctx, b.pinned(b.pol.view()), low, high)
	if err != nil {
		return nil, err
	}
	return kv.Collect(it)
}

// NewIterator streams a pinned snapshot of the view the policy captures;
// the read's closing critical section, if any, runs at Close. The
// multi-versioned design pins ONE snapshot for the iterator's whole
// lifetime — versions newer than the bound stay invisible however long
// the caller iterates, with no restarts (the memory-for-stability trade
// §3.2 discusses).
func (b *base) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if err := b.check(ctx); err != nil {
		return nil, err
	}
	b.ops.Iterators.Add(1)
	return b.reads.NewIterator(ctx, b.pinned(b.pol.view()), low, high)
}

// Snapshot pins a repeatable-read view at the bound the policy captures.
// The multi-versioned memtables make this nearly free: the handle
// references the captured memtable generation(s) — whose versions <= the
// bound survive arbitrarily many later writes — and pins the current disk
// version so compaction cannot delete the files the bound still needs.
// The baselines simply hold on to what multi-versioning already kept;
// FloDB's single-versioned memory component reaches the same O(1)
// snapshot through seq-pinned version chains in its skiplist.
func (b *base) Snapshot(ctx context.Context) (kv.View, error) {
	if err := b.check(ctx); err != nil {
		return nil, err
	}
	b.ops.Snapshots.Add(1)
	return b.reads.NewSnapshot(b.pinned(b.pol.snapView())), nil
}

func (b *base) endRead() {
	if b.pol.endRead != nil {
		b.pol.endRead()
	}
}

// readView is a captured (mem, imm, seq) as a storage view with no disk
// source: a point read's, which reads the live disk state.
func readView(mem, imm *memHandle, snap uint64) storage.ReadView {
	v := storage.ReadView{Seq: snap, Mem: [2]storage.MemLevel{mem.mem}}
	if imm != nil {
		v.Mem[1] = imm.mem
	}
	return v
}

// pinned is readView with the current disk version pinned under it, for a
// view that outlives one call.
func (b *base) pinned(mem, imm *memHandle, snap uint64) storage.ReadView {
	v := readView(mem, imm, snap)
	v.Ver = b.store.PinVersion()
	return v
}

// muView captures the read view under the global mutex.
func (b *base) muView() (mem, imm *memHandle, snap uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.mem, b.imm, b.lastSeq
}

// barrierView is muView behind the snapshot barrier: no insert with a
// sequence number at or below the bound is still in flight.
func (b *base) barrierView() (mem, imm *memHandle, snap uint64) {
	b.snapMu.Lock()
	defer b.snapMu.Unlock()
	return b.muView()
}

// muSection is LevelDB's closing read section: it releases its memtable
// and version references under the global mutex.
func (b *base) muSection() {
	//lint:ignore SA2001 the empty critical section is the read's cost the paper measures
	b.mu.Lock()
	b.mu.Unlock()
}

// --- Checkpoint and shutdown --------------------------------------------------

// Checkpoint syncs the WAL segments and clones the store into dir via
// the storage checkpoint path (hard-linked tables + copied WAL tail +
// fresh manifest).
//
// WAL appends are buffered, so around a memtable switch the sealed
// segment's file can lag its logical contents while the successor
// segment takes newer records — copying in that window would leave a
// hole in the middle of history. Both segments are therefore synced
// first, and the copy is validated by the memtable handle being the same
// before and after: if a switch raced the copy, the attempt is discarded
// and retried. (The storage layer independently retries on WAL turnover
// from completed flushes via its log-number check.)
func (b *base) Checkpoint(ctx context.Context, dir string) error {
	if err := b.check(ctx); err != nil {
		return err
	}
	if err := b.loadFlushErr(); err != nil {
		return err
	}
	b.ops.Checkpoints.Add(1)
	const retries = 4
	for attempt := 0; attempt < retries; attempt++ {
		b.mu.Lock()
		mem, imm := b.mem, b.imm
		b.mu.Unlock()
		// A handle flushed meanwhile closes its WAL; its contents are then
		// in tables, which the log-number check accounts for.
		if err := storage.SyncLogs(imm.log(), mem.log()); err != nil {
			return err
		}
		if err := b.store.Checkpoint(dir); err != nil {
			return err
		}
		b.mu.Lock()
		stable := b.mem == mem
		b.mu.Unlock()
		if stable {
			return nil
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return fmt.Errorf("baseline: checkpoint %s: memtable turnover outpaced the copy %d times", dir, retries)
}

// Close stops the background work, flushes the sealed and the active
// memtable and closes the logs (storage.Store.Shutdown).
func (b *base) Close() error {
	if !b.stop() {
		return nil
	}
	// The policy's view holds the newest sequence number: cLSM numbers
	// its writes outside mu.
	_, _, last := b.pol.view()
	err := b.loadFlushErr()
	if err == nil && b.imm != nil {
		if err = b.flushHandle(b.imm); err == nil {
			b.imm = nil // else imm stays stranded; Shutdown syncs its tail
		}
	}
	return b.store.Shutdown(err, b.imm.log(), b.mem.mem.NewIterator(), b.mem.wal, b.mem.walNum, last)
}

// stop closes the store to new operations and waits out the background
// goroutines. A writer parked in waitRoomLocked waits for a flush loop
// that is now gone: the broadcast wakes it to find the store closed. It
// reports whether this call did the closing.
func (b *base) stop() bool {
	if b.closed.Swap(true) {
		return false
	}
	close(b.closing)
	b.mu.Lock()
	b.immCond.Broadcast()
	b.mu.Unlock()
	b.wg.Wait()
	return true
}

// CrashForTesting abandons the store the way a crash would: background
// threads stop, every live WAL segment is Abandoned (its unflushed
// staging tail is LOST), and no close-time flush or sync runs. Durability
// tests use it to open the acked-but-lost window deliberately; production
// code must use Close.
func (b *base) CrashForTesting() {
	if !b.stop() {
		return
	}
	b.mu.Lock()
	mem, imm := b.mem, b.imm
	b.mu.Unlock()
	b.store.Crash(imm.log(), mem.log())
}

// WaitDiskQuiesce blocks until the pending flush and all compactions
// settle (experiment setup, §5.2).
func (b *base) WaitDiskQuiesce() {
	for {
		b.mu.Lock()
		busy := b.imm != nil
		b.mu.Unlock()
		if !busy {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b.store.WaitForCompactions()
}

// Stats reports shared counters.
func (b *base) Stats() kv.Stats { return kv.StatsOf(b.TelemetrySnapshot()) }

// TelemetrySnapshot freezes the metrics registry.
func (b *base) TelemetrySnapshot() obs.Snapshot { return b.reg.Snapshot() }

// ErrClosedBaseline is returned by operations on a closed baseline store.
// It wraps kv.ErrClosed, so errors.Is(err, kv.ErrClosed) holds.
var ErrClosedBaseline = fmt.Errorf("baseline: %w", kv.ErrClosed)
