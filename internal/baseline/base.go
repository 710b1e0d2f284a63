package baseline

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
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
	// Durability is the class of a write that names none, as in FloDB:
	// DurabilityDefault resolves to Buffered, and None appends no record
	// for such a write. The log itself is always on.
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

// log returns the handle's segment: nil for a nil handle.
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
	if d == kv.DurabilityNone {
		return nil, 0, nil
	}
	off, err := h.wal.AppendRecord(kind, key, value)
	return h.wal, off, err
}

// logBatch is logRecord for a whole batch, which is one record: recovery
// replays it all or nothing.
func (h *memHandle) logBatch(d kv.Durability, b *kv.Batch) (*wal.Writer, int64, error) {
	if d == kv.DurabilityNone {
		return nil, 0, nil
	}
	off, err := h.wal.Append(kv.EncodeBatchRecord(b))
	return h.wal, off, err
}

// policy is all a variant adds to base: what its row in README's
// six-system table says. The kv.Store calls themselves — the closed and
// context checks, the background error, durability, the op counters and
// latencies, the Sync-class commit and the read handles — are the
// storage.Front all five engines share; the memtables, their flush and
// the log lifecycle around them are base's.
type policy struct {
	// write orders one update against the others and inserts it. It
	// returns the update's commit record, which the Front waits on for a
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

// base is the engine the four variants share behind their storage.Front:
// versioned memtables, a WAL segment per memtable (whose lifecycle
// internal/storage owns), flush scheduling, and the views reads resolve
// against. Locking POLICY lives in the variants' policy; base supplies the
// mechanism and calls the policy where the variants differ.
type base struct {
	storage.Front
	cfg   Config
	store *storage.Store
	pol   policy

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
	// wg counts the background goroutines: the flush loop and LevelDB's
	// write leader.
	wg sync.WaitGroup

	// walMetrics is shared by every WAL segment, so the acked-vs-durable
	// boundary spans memtable switches.
	walMetrics wal.Metrics
}

func (b *base) init(cfg Config, pol policy) error {
	if err := cfg.fillDefaults(); err != nil {
		return err
	}
	if err := b.Init(cfg.Durability); err != nil {
		return err
	}
	b.cfg, b.pol = cfg, pol
	scfg := cfg.Storage
	scfg.Events = b.Events()
	store, err := storage.Open(cfg.Dir, scfg)
	if err != nil {
		return err
	}
	b.store = store
	eng := storage.Engine{
		Write:      pol.write,
		Apply:      pol.apply,
		Get:        b.get,
		View:       func() storage.ReadView { return b.pinned(pol.view()) },
		Snapshot:   func() storage.ReadView { return b.pinned(pol.snapView()) },
		Logs:       b.logs,
		Checkpoint: b.checkpoint,
		Stop:       b.stop,
	}
	if pol.endRead != nil {
		eng.Release = func(uint64) { pol.endRead() }
	}
	b.Front.Open(store, &b.walMetrics, eng)
	b.immCond = sync.NewCond(&b.mu)
	b.flushCh = make(chan struct{}, 1)
	b.closing = make(chan struct{})

	if b.lastSeq, err = store.RecoverLogs(func() storage.ReplayMem { return newSkipMem() }); err != nil {
		store.Close()
		return err
	}
	if b.mem, err = b.newMemHandle(); err != nil {
		store.Close()
		return err
	}
	if err := store.SetLogNum(b.mem.walNum, b.lastSeq); err != nil {
		store.Close()
		return err
	}
	b.wg.Add(1)
	go b.flushLoop()
	return nil
}

func (b *base) newMemHandle() (*memHandle, error) {
	h := &memHandle{mem: newSkipMem()}
	var err error
	if h.walNum, h.wal, err = b.store.CreateLog(wal.Options{Metrics: &b.walMetrics}); err != nil {
		return nil, err
	}
	return h, nil
}

// --- Writes -------------------------------------------------------------------

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
	var st storage.Stall
	err = b.waitRoomLocked(ctx, &st)
	b.NoteStall(&st)
	if err != nil {
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
	var st storage.Stall
	err := b.waitRoomLocked(ctx, &st)
	b.NoteStall(&st)
	if err != nil {
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

// logs loads the live segments, sealed and active, under mu.
func (b *base) logs() (sealed, active *wal.Writer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.imm.log(), b.mem.log()
}

// waitRoomLocked blocks (on mu) while the memtable is full and the
// previous one is still flushing — the writer delay of §2.3, timed in st
// under cause memtable — with a cancellation point at every cond wakeup.
// (A Wait in progress cannot be interrupted by the context; the flush
// loop's broadcast bounds the latency.)
func (b *base) waitRoomLocked(ctx context.Context, st *storage.Stall) error {
	for b.mem.mem.ApproxBytes() >= b.cfg.MemBytes && b.imm != nil {
		if err := b.waitFlushLocked(ctx, st); err != nil {
			return err
		}
	}
	if b.mem.mem.ApproxBytes() >= b.cfg.MemBytes && b.imm == nil {
		return b.switchMemLocked()
	}
	return nil
}

// waitFlushLocked waits on mu for the flush loop to retire imm, timing the
// wait in st. It fails instead when the caller gave up or the wait could
// never end: the store is closed (stop wakes every waiter) or a flush
// failed (flushLoop does).
func (b *base) waitFlushLocked(ctx context.Context, st *storage.Stall) error {
	if err := b.Check(ctx); err != nil {
		return err
	}
	if err := b.BackgroundErr(); err != nil {
		return err
	}
	st.Wait(storage.StallMemtable)
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
	if err := b.mem.wal.Flush(); err != nil {
		return err
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

// flushLoop flushes each sealed memtable. A failed flush is the store's
// background error from then on, and wakes every writer waiting for room
// to find it.
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
			b.SetBackgroundErr(err)
			b.mu.Lock()
			b.immCond.Broadcast()
			b.mu.Unlock()
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

// --- Reads --------------------------------------------------------------------

// get reads key at the view the policy captures, then runs the read's
// closing critical section, if the variant has one.
func (b *base) get(key []byte) ([]byte, bool, error) {
	v, ok, err := b.ViewGet(readView(b.pol.view()), key)
	if b.pol.endRead != nil {
		b.pol.endRead()
	}
	return v, ok, err
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
// view that outlives one call: an iterator's or a Snapshot's. The
// multi-versioned memtables make this nearly free: the view references
// the captured memtable generation(s) — whose versions <= the bound
// survive arbitrarily many later writes — and pins the current disk
// version so compaction cannot delete the files the bound still needs.
// Versions newer than the bound stay invisible however long the caller
// reads, with no restarts (the memory-for-stability trade §3.2 discusses).
// FloDB's single-versioned memory component reaches the same O(1) view
// through seq-pinned version chains in its skiplist.
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

// checkpoint syncs the WAL segments and clones the store into dir via
// the storage checkpoint path (hard-linked tables + copied WAL tail +
// fresh manifest), once the Front has admitted the call.
//
// WAL appends are buffered, so around a memtable switch the sealed
// segment's file can lag its logical contents while the successor
// segment takes newer records — copying in that window would leave a
// hole in the middle of history. Both segments are therefore synced
// first, and the copy is validated by the memtable handle being the same
// before and after: if a switch raced the copy, the attempt is discarded
// and retried. (The storage layer independently retries on WAL turnover
// from completed flushes via its log-number check.)
func (b *base) checkpoint(dir string) error {
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
	if !b.Shut() {
		return nil
	}
	// The policy's view holds the newest sequence number: cLSM numbers
	// its writes outside mu.
	_, _, last := b.pol.view()
	err := b.BackgroundErr()
	if err == nil && b.imm != nil {
		if err = b.flushHandle(b.imm); err == nil {
			b.imm = nil // else imm stays stranded; Shutdown syncs its tail
		}
	}
	return b.store.Shutdown(err, b.imm.log(), b.mem.mem.NewIterator(), b.mem.wal, b.mem.walNum, last)
}

// stop waits out the background goroutines once the Front has closed the
// store. A writer parked in waitRoomLocked waits for a flush loop that is
// now gone: the broadcast wakes it to find the store closed.
func (b *base) stop() {
	close(b.closing)
	b.mu.Lock()
	b.immCond.Broadcast()
	b.mu.Unlock()
	b.wg.Wait()
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
