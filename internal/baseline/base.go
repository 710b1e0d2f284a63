package baseline

import (
	"context"
	"errors"
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
	// kv.ErrNotSupported, as in FloDB.
	DisableWAL bool
	// Durability is the default class for writes that don't override it
	// per operation (DurabilityDefault resolves to Buffered, or None when
	// the WAL is disabled).
	Durability kv.Durability
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
	if !c.Durability.Valid() {
		return fmt.Errorf("baseline: invalid Durability %v", c.Durability)
	}
	if c.DisableWAL {
		if c.Durability == kv.DurabilityBuffered || c.Durability == kv.DurabilitySync {
			return fmt.Errorf("baseline: default Durability %v requires the WAL, but the WAL is disabled: %w", c.Durability, kv.ErrNotSupported)
		}
		c.Durability = kv.DurabilityNone
	} else if c.Durability == kv.DurabilityDefault {
		c.Durability = kv.DurabilityBuffered
	}
	return nil
}

// memHandle pairs a memtable with its WAL generation.
type memHandle struct {
	mem    *skipMem
	wal    *wal.Writer
	walNum uint64
	// inserting counts writers that picked this handle under mu and insert
	// into it after releasing mu (beginConcurrentInsertLocked). The flush
	// waits for them: such a writer can be descheduled across the switch
	// that seals the handle, and an insert landing after the flush had
	// iterated the memtable was an acknowledged write lost.
	inserting sync.WaitGroup
}

// base carries the machinery shared by the four variants: versioned
// memtables, WAL handling, flush scheduling, snapshot reads and scans.
// Locking POLICY lives in the variants; base only supplies mechanism.
type base struct {
	cfg   Config
	store *storage.Store

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

	flushCh  chan struct{}
	closing  chan struct{}
	closed   atomic.Bool
	wg       sync.WaitGroup
	flushErr atomic.Pointer[error]

	// walMetrics is shared by every WAL segment, so the acked-vs-durable
	// boundary spans memtable switches.
	walMetrics wal.Metrics

	// reg holds the operation counters (ops) and the views over the WAL
	// and disk component, under the metric names FloDB registers.
	reg *obs.Registry
	ops kv.OpCounters
}

func (b *base) init(cfg Config) error {
	if err := cfg.fillDefaults(); err != nil {
		return err
	}
	b.cfg = cfg
	store, err := storage.Open(cfg.Dir, cfg.Storage)
	if err != nil {
		return err
	}
	b.store = store
	b.reg = obs.NewRegistry()
	b.ops = kv.NewOpCounters(b.reg)
	storage.RegisterMetrics(b.reg, store, &b.walMetrics)
	b.lastSeq = store.LastSeq()
	b.immCond = sync.NewCond(&b.mu)
	b.flushCh = make(chan struct{}, 1)
	b.closing = make(chan struct{})

	if err := b.recoverWALs(); err != nil {
		store.Close()
		return err
	}
	h, err := b.newMemHandle()
	if err != nil {
		store.Close()
		return err
	}
	b.mem = h
	if !cfg.DisableWAL {
		if err := store.SetLogNum(h.walNum, b.lastSeq); err != nil {
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
	h.walNum = b.store.NewFileNum()
	w, err := wal.Create(storage.WALFileName(b.cfg.Dir, h.walNum), wal.Options{Metrics: &b.walMetrics})
	if err != nil {
		return nil, err
	}
	h.wal = w
	return h, nil
}

func (b *base) recoverWALs() error {
	if b.cfg.DisableWAL {
		return nil
	}
	logNum := b.store.LogNum()
	entries, err := os.ReadDir(b.cfg.Dir)
	if err != nil {
		return err
	}
	var segs []uint64
	for _, ent := range entries {
		kind, num := storage.ParseFileName(ent.Name())
		if kind == storage.KindWAL && num >= logNum {
			segs = append(segs, num)
		}
	}
	for i := 0; i < len(segs); i++ { // insertion-sort: few segments
		for j := i; j > 0 && segs[j] < segs[j-1]; j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
	for _, num := range segs {
		mem := newSkipMem()
		// ForEachOp decodes single-op and multi-op (batch) records alike;
		// batch atomicity comes from the WAL's per-record CRC framing.
		err := wal.ReplayAll(storage.WALFileName(b.cfg.Dir, num), func(rec []byte) error {
			return kv.ForEachOp(rec, func(kind keys.Kind, key, value []byte) error {
				b.lastSeq++
				mem.Insert(keys.Clone(key), b.lastSeq, kind, keys.Clone(value))
				return nil
			})
		})
		if err != nil {
			return fmt.Errorf("baseline: replay wal %d: %w", num, err)
		}
		if mem.Len() > 0 {
			if _, err := b.store.Flush(mem.NewIterator(), num+1, b.lastSeq); err != nil {
				return err
			}
		}
		os.Remove(storage.WALFileName(b.cfg.Dir, num))
	}
	return nil
}

// --- Write-side mechanism -----------------------------------------------------

// resolveDurability folds per-op options over the configured default and
// rejects logged classes on a store that has no log to back them.
func (b *base) resolveDurability(opts []kv.WriteOption) (kv.Durability, error) {
	d := b.cfg.Durability
	if len(opts) > 0 {
		d = kv.ResolveWriteOptions(b.cfg.Durability, opts...).Durability
	}
	if !d.Valid() {
		return 0, fmt.Errorf("baseline: invalid durability %v", d)
	}
	if d != kv.DurabilityNone && b.cfg.DisableWAL {
		return 0, fmt.Errorf("baseline: %v durability without a WAL: %w", d, kv.ErrNotSupported)
	}
	return d, nil
}

// commitSync is the commit point of a Sync-class write: it blocks until
// the group-commit queue covers the record appended at off. Durability is
// prefix-ordered: a live sealed segment's tail is synced FIRST, so a
// Sync-acked write never survives a crash that loses an earlier acked
// write (no holes in commit order). A writer closed underneath us was
// retired by a completed flush, so its contents are durable through
// sstables and the barrier is satisfied.
func (b *base) commitSync(w *wal.Writer, off int64) error {
	if w == nil {
		return nil
	}
	b.mu.Lock()
	imm := b.imm
	b.mu.Unlock()
	if imm != nil && imm.wal != nil && imm.wal != w {
		if err := imm.wal.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
			return err
		}
	}
	if err := w.SyncTo(off); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	return nil
}

// insertLocked assigns a sequence number and inserts into the current
// memtable, logging first (unless the op is DurabilityNone). Caller holds
// mu; the actual memtable insert happens under mu (used by the LevelDB
// write leader). It returns the commit-record position for a Sync-class
// caller to group-commit AFTER releasing mu.
func (b *base) insertLocked(kind keys.Kind, key, value []byte, logged bool) (*wal.Writer, int64, error) {
	var w *wal.Writer
	var off int64
	if logged {
		var err error
		w, off, err = b.logRecord(b.mem, kind, key, value)
		if err != nil {
			return nil, 0, err
		}
	}
	b.lastSeq++
	b.mem.mem.Insert(key, b.lastSeq, kind, value)
	b.maybeScheduleFlushLocked()
	return w, off, nil
}

// beginConcurrentInsert allocates a sequence number and returns the target
// handle under mu; the caller inserts outside the lock (HyperLevelDB /
// RocksDB styles) and then calls h.inserting.Done. waitRoomLocked must
// have been honored.
func (b *base) beginConcurrentInsertLocked() (*memHandle, uint64) {
	b.lastSeq++
	b.mem.inserting.Add(1)
	return b.mem, b.lastSeq
}

func (b *base) logRecord(h *memHandle, kind keys.Kind, key, value []byte) (*wal.Writer, int64, error) {
	if h.wal == nil {
		return nil, 0, nil
	}
	off, err := h.wal.Append(kv.EncodeRecord(kind, key, value))
	if err != nil {
		return nil, 0, err
	}
	return h.wal, off, nil
}

// applyBatch is the shared Apply mechanism for the mutex-ordered variants
// (LevelDB, HyperLevelDB, RocksDB): one WAL record for the whole batch,
// then every operation inserted under the global mutex with consecutive
// sequence numbers. Atomicity falls out of the multi-versioned design —
// the batch's version range is contiguous, and recovery replays the single
// record all-or-nothing. Under DurabilitySync the whole batch costs one
// group-committed fsync, issued after the global mutex is released.
func (b *base) applyBatch(ctx context.Context, batch *kv.Batch, opts []kv.WriteOption) error {
	if b.closed.Load() {
		return ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := b.loadFlushErr(); err != nil {
		return err
	}
	d, err := b.resolveDurability(opts)
	if err != nil {
		return err
	}
	if batch == nil || batch.Len() == 0 {
		return nil
	}
	b.ops.Batches.Add(1)
	b.ops.BatchOps.Add(uint64(batch.Len()))
	w, off, err := b.applyBatchLocked(ctx, batch, d)
	if err != nil {
		return err
	}
	if d == kv.DurabilitySync {
		return b.commitSync(w, off)
	}
	return nil
}

func (b *base) applyBatchLocked(ctx context.Context, batch *kv.Batch, d kv.Durability) (*wal.Writer, int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.waitRoomCtxLocked(ctx); err != nil {
		return nil, 0, err
	}
	var w *wal.Writer
	var off int64
	if d != kv.DurabilityNone && b.mem.wal != nil {
		var err error
		off, err = b.mem.wal.Append(kv.EncodeBatchRecord(batch))
		if err != nil {
			return nil, 0, err
		}
		w = b.mem.wal
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
	if b.closed.Load() {
		return ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
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
	for _, h := range []*memHandle{imm, mem} {
		if h == nil || h.wal == nil {
			continue
		}
		if err := h.wal.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
			return err
		}
	}
	return nil
}

// waitRoomLocked blocks (on mu) while the memtable is full and the
// previous one is still flushing — the writer delay of §2.3.
func (b *base) waitRoomLocked() error {
	return b.waitRoomCtxLocked(context.Background())
}

// waitRoomCtxLocked is waitRoomLocked with a cancellation point at every
// cond wakeup. (A Wait in progress cannot be interrupted by the context;
// the flush loop's broadcast bounds the latency.)
func (b *base) waitRoomCtxLocked(ctx context.Context) error {
	for b.mem.mem.ApproxBytes() >= b.cfg.MemBytes && b.imm != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := b.loadFlushErr(); err != nil {
			return err
		}
		b.immCond.Wait()
	}
	if b.mem.mem.ApproxBytes() >= b.cfg.MemBytes && b.imm == nil {
		return b.switchMemLocked()
	}
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

// flushHandle persists one sealed memtable.
func (b *base) flushHandle(h *memHandle) error {
	h.inserting.Wait() // h is sealed: no new inserter can pick it
	b.mu.Lock()
	newLog := b.mem.walNum
	lastSeq := b.lastSeq
	b.mu.Unlock()
	if b.cfg.DisableWAL {
		newLog = b.store.NewFileNum()
	}
	if _, err := b.store.Flush(h.mem.NewIterator(), newLog, lastSeq); err != nil {
		return err
	}
	if h.wal != nil {
		// The handle's contents just reached sstables: its records are
		// durable regardless of fsync coverage. Advance the boundary
		// before retiring the segment.
		h.wal.MarkContentsDurable()
		h.wal.Close()
		os.Remove(storage.WALFileName(b.cfg.Dir, h.walNum))
	}
	return nil
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

// --- Read-side mechanism -------------------------------------------------------

// snapshotLocked captures the read view under mu.
func (b *base) snapshotLocked() (mem, imm *memHandle, snap uint64) {
	return b.mem, b.imm, b.lastSeq
}

// getFrom resolves a read against a captured view. ver, when non-nil, is
// a pinned disk version read at the snap bound (long-lived snapshot
// handles); nil reads the live disk state (point operations, whose view
// was captured moments ago).
func (b *base) getFrom(mem, imm *memHandle, ver *storage.Version, snap uint64, key []byte) ([]byte, bool, error) {
	if v, _, kind, ok := mem.mem.Get(key, snap); ok {
		if kind == keys.KindDelete {
			return nil, false, nil
		}
		return v, true, nil
	}
	if imm != nil {
		if v, _, kind, ok := imm.mem.Get(key, snap); ok {
			if kind == keys.KindDelete {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	var (
		v    []byte
		kind keys.Kind
		ok   bool
		err  error
	)
	if ver != nil {
		v, _, kind, ok, err = b.store.GetAt(ver, key, snap)
	} else {
		v, _, kind, ok, err = b.store.Get(key)
	}
	if err != nil {
		return nil, false, err
	}
	if !ok || kind == keys.KindDelete {
		return nil, false, nil
	}
	return v, true, nil
}

// scanFrom produces a consistent snapshot scan at snap: a drained
// snapshot iterator. Multi-versioning makes this conflict-free: versions
// newer than snap are simply skipped — the approach whose memory cost §3.2
// criticizes, but which needs no restarts.
func (b *base) scanFrom(ctx context.Context, mem, imm *memHandle, snap uint64, low, high []byte) ([]kv.Pair, error) {
	it, err := b.newSnapshotIter(ctx, mem, imm, nil, snap, low, high, nil)
	if err != nil {
		return nil, err
	}
	return kv.Collect(it)
}

// newSnapshotIter builds a streaming iterator over a captured view. The
// multi-versioned design pins ONE snapshot for the iterator's whole
// lifetime — versions newer than snap stay invisible however long the
// caller iterates, with no restarts (the memory-for-stability trade §3.2
// discusses). ver, when non-nil, is an already-pinned disk version to
// iterate (the iterator takes its own reference); nil pins the current
// one. The pin is released on Close; onClose, when non-nil, runs after
// the release (the variants' end-of-read critical section).
func (b *base) newSnapshotIter(ctx context.Context, mem, imm *memHandle, ver *storage.Version, snap uint64, low, high []byte, onClose func()) (kv.Iterator, error) {
	if ver == nil {
		ver = b.store.PinVersion()
	} else {
		b.store.AcquireVersion(ver)
	}
	its := []storage.InternalIterator{mem.mem.NewIterator()}
	if imm != nil {
		its = append(its, imm.mem.NewIterator())
	}
	dit, pins, err := b.store.NewVersionIterator(ver)
	if err != nil {
		b.store.ReleaseVersion(ver)
		return nil, err
	}
	its = append(its, dit)
	store := b.store
	return storage.NewSnapshotIter(ctx, storage.NewMergingIterator(its...), storage.SnapshotIterOptions{
		Low: low, High: high, MaxSeq: snap,
		OnClose: func() {
			pins()
			store.ReleaseVersion(ver)
			if onClose != nil {
				onClose()
			}
		},
	}), nil
}

// --- Snapshot handles ---------------------------------------------------------

// newSnapshot wraps a captured view as a long-lived kv.View. The
// multi-versioned memtables make this nearly free: the handle references
// the captured memtable generation(s) — whose versions <= snap survive
// arbitrarily many later writes — and pins the current disk version so
// compaction cannot delete the files the bound still needs. The
// baselines simply hold on to what multi-versioning already kept;
// FloDB's single-versioned memory component reaches the same O(1)
// snapshot through seq-pinned version chains in its skiplist.
func (b *base) newSnapshot(mem, imm *memHandle, snap uint64) *baseSnapshot {
	b.ops.Snapshots.Add(1)
	return &baseSnapshot{b: b, mem: mem, imm: imm, snap: snap, ver: b.store.PinVersion()}
}

// baseSnapshot is a pinned read view at a sequence bound.
type baseSnapshot struct {
	b        *base
	mem, imm *memHandle
	snap     uint64
	ver      *storage.Version
	closed   atomic.Bool
}

var _ kv.View = (*baseSnapshot)(nil)

func (s *baseSnapshot) check(ctx context.Context) error {
	if s.closed.Load() {
		return ErrSnapshotReleasedBaseline
	}
	if s.b.closed.Load() {
		return ErrClosedBaseline
	}
	return ctx.Err()
}

// Get returns the value key had at the snapshot point (a copy).
func (s *baseSnapshot) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if err := s.check(ctx); err != nil {
		return nil, false, err
	}
	v, ok, err := s.b.getFrom(s.mem, s.imm, s.ver, s.snap, key)
	if err != nil || !ok {
		return nil, false, err
	}
	return keys.Clone(v), true, nil
}

// Scan materializes the range at the snapshot point.
func (s *baseSnapshot) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	it, err := s.NewIterator(ctx, low, high)
	if err != nil {
		return nil, err
	}
	return kv.Collect(it)
}

// NewIterator streams the snapshot's range. The iterator holds its own
// version pin, so it survives the handle's Close.
func (s *baseSnapshot) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	s.b.ops.Iterators.Add(1)
	return s.b.newSnapshotIter(ctx, s.mem, s.imm, s.ver, s.snap, low, high, nil)
}

// Close releases the snapshot's disk pin. Idempotent; outstanding
// iterators keep their own pins and stay valid.
func (s *baseSnapshot) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.b.store.ReleaseVersion(s.ver)
	return nil
}

// --- Checkpoint ---------------------------------------------------------------

// Checkpoint syncs the WAL segments and clones the store into dir via
// the storage checkpoint path (hard-linked tables + copied WAL tail +
// fresh manifest). Shared by all four variants.
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
	if b.closed.Load() {
		return ErrClosedBaseline
	}
	if err := ctx.Err(); err != nil {
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
		// Sealed-segment sync first (flush order), then the active one. A
		// handle flushed meanwhile closes its WAL; its contents are then
		// in tables, which the log-number check accounts for.
		for _, h := range []*memHandle{imm, mem} {
			if h == nil || h.wal == nil {
				continue
			}
			if err := h.wal.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
				return err
			}
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

// closeCommon shuts down the flush loop and persists what remains. Any
// segment whose contents do NOT reach sstables here (flush failure paths)
// has its tail synced before closing — wal.Writer.Close does not fsync,
// and a clean shutdown must never widen the acked-but-lost window.
func (b *base) closeCommon() error {
	if b.closed.Swap(true) {
		return nil
	}
	close(b.closing)
	b.wg.Wait()

	firstErr := b.loadFlushErr()
	memFlushed := false
	if firstErr == nil {
		if b.imm != nil {
			if err := b.flushHandle(b.imm); err != nil {
				firstErr = err // imm stays stranded; its tail is synced below
			} else {
				b.imm = nil
			}
		}
		if firstErr == nil {
			if b.mem.mem.Len() > 0 {
				newLog := b.mem.walNum + 1
				if b.cfg.DisableWAL {
					newLog = b.store.NewFileNum()
				}
				if _, err := b.store.Flush(b.mem.mem.NewIterator(), newLog, b.lastSeq); err != nil {
					firstErr = err
				} else {
					memFlushed = true
					if b.mem.wal != nil {
						b.mem.wal.MarkContentsDurable()
						os.Remove(storage.WALFileName(b.cfg.Dir, b.mem.walNum))
					}
				}
			} else {
				memFlushed = true // nothing unpersisted; the tail is redundant
			}
		}
	}
	// A stranded sealed handle (flush failure) still holds acked records:
	// sync and close its segment too.
	if b.imm != nil && b.imm.wal != nil {
		if err := b.imm.wal.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) && firstErr == nil {
			firstErr = err
		}
		if err := b.imm.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if b.mem.wal != nil {
		if !memFlushed {
			if err := b.mem.wal.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) && firstErr == nil {
				firstErr = err
			}
		}
		if err := b.mem.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := b.store.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// CrashForTesting abandons the store the way a crash would: background
// threads stop, every live WAL segment is Abandoned (its unflushed
// staging tail is LOST), and no close-time flush or sync runs. Durability
// tests use it to open the acked-but-lost window deliberately; production
// code must use Close.
func (b *base) CrashForTesting() {
	if b.closed.Swap(true) {
		return
	}
	close(b.closing)
	// Writers parked in waitRoomCtxLocked wait on immCond for a flush
	// loop that is now gone; the sticky error wakes and fails them.
	b.setFlushErr(ErrClosedBaseline)
	b.wg.Wait()
	b.mu.Lock()
	mem, imm := b.mem, b.imm
	b.mu.Unlock()
	if imm != nil && imm.wal != nil {
		imm.wal.Abandon()
	}
	if mem.wal != nil {
		mem.wal.Abandon()
	}
	b.store.Close()
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

// ErrSnapshotReleasedBaseline is returned by reads through a Closed
// snapshot handle. It wraps kv.ErrSnapshotReleased.
var ErrSnapshotReleasedBaseline = fmt.Errorf("baseline: %w", kv.ErrSnapshotReleased)
