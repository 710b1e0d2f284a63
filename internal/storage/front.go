package storage

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/wal"
)

// ErrClosed is returned by operations on a closed store, whichever engine
// it runs. It wraps kv.ErrClosed, so errors.Is(err, kv.ErrClosed) holds.
var ErrClosed = fmt.Errorf("flodb: %w", kv.ErrClosed)

// Front is the kv.Store operation shell every engine shares: FloDB and
// the four baselines embed one and supply only their memory component's
// policy, as an Engine. It owns what no engine does differently:
//
//   - the closed flag and the closed/context check every call starts with;
//   - the sticky background error (a failed persist or flush), which every
//     write, Snapshot, Sync and Checkpoint returns from then on;
//   - the default durability class and each write's resolution of it;
//   - the metrics registry: the op counters, the op latency histograms,
//     the writer stall counters, the event log, and the views over the
//     commit log and disk component (registerMetrics), all read by Stats
//     and TelemetrySnapshot;
//   - the read side: the bounded Get, and the iterator and snapshot
//     handles over an engine's ReadViews (view.go).
//
// A call is counted once it passes the closed/context check, and a counted
// Put, Delete, Get, Apply, Scan or Snapshot is timed into
// flodb_op_latency_seconds. The clock is read twice per op, and only the
// monotonic clock (Clock).
//
// A Front must be readied by Init and then Open, and must not be copied
// after: it pools iterator frames.
type Front struct {
	store *Store
	eng   Engine

	// durability is the class of a write that names none.
	durability kv.Durability

	closed atomic.Bool
	bgErr  atomic.Pointer[error]

	reg    *obs.Registry
	events *obs.EventLog
	ops    kv.OpCounters
	lat    [numOps]*obs.Histogram
	// stallNanos accumulates the time writers spent waiting before their
	// write could go in, whether it then completed or gave up;
	// stallByCause splits it by what they waited on, and stallLat
	// distributes it per write, telling a few long stalls from many
	// short ones.
	stallNanos   *obs.Counter
	stallByCause [NumStallCauses]*obs.Counter
	stallLat     *obs.Histogram

	// frames recycles the merge machinery of closed iterators.
	frames sync.Pool
}

// Engine is what an engine plugs into its Front: how its memory component
// takes writes and answers reads. Every field but Release is required.
type Engine struct {
	// Write orders one update of kind against the others and puts it in
	// the memory component, logging it when d is a logged class. It
	// returns the update's commit record, which the Front waits on for a
	// Sync-class write after every lock is released; a nil segment when
	// the engine has already committed it.
	Write func(ctx context.Context, kind keys.Kind, key, value []byte, d kv.Durability) (*wal.Writer, int64, error)
	// Apply does the same for a non-empty batch, logged as one record.
	Apply func(ctx context.Context, b *kv.Batch, d kv.Durability) (*wal.Writer, int64, error)
	// Get returns key's newest value. The value may alias store memory
	// that is never written again: the Front copies it for the caller.
	Get func(key []byte) ([]byte, bool, error)
	// View pins the view a Scan, an iterator or a Snapshot reads, holding
	// one reference on it. The view is one point in time: no write at or
	// below its bound is still in flight.
	View func() ReadView
	// Release, when set, runs when a pinned view's last reference drops,
	// after its Version is released: FloDB unregisters the view's bound
	// from its skiplists' Retention, and LevelDB and HyperLevelDB run the
	// critical section their reads end with.
	Release func(seq uint64)
	// Log returns the active log segment. A sealed segment a flush is
	// still writing is its predecessor, which every barrier over the
	// active one covers first (wal's segment order).
	Log func() *wal.Writer
	// Stop stops the engine's background work; the Front has closed the
	// store to new operations first (Shut).
	Stop func()
}

// The ops the Front times, labelling flodb_op_latency_seconds.
const (
	opPut = iota
	opGet
	opDelete
	opScan
	opBatch
	opSnapshot
	numOps
)

var opNames = [numOps]string{"put", "get", "delete", "scan", "batch", "snapshot"}

// Init builds the registry and the event log, which must exist before an
// engine's first counter increment or event (recovery emits some), and
// validates the store's configured default durability class def,
// resolving DurabilityDefault in it to Buffered.
func (f *Front) Init(def kv.Durability) error {
	if !def.Valid() {
		return fmt.Errorf("storage: invalid Durability %v", def)
	}
	f.durability = kv.ResolveWriteOptions(def).Durability
	reg := obs.NewRegistry()
	f.reg, f.events = reg, obs.NewEventLog(0)
	f.ops = kv.NewOpCounters(reg)
	for op, name := range opNames {
		f.lat[op] = reg.Histogram(`flodb_op_latency_seconds{op="`+name+`"}`, "Operation latency by op.")
	}
	f.stallNanos = reg.Counter("flodb_write_stall_nanoseconds_total", "Writer time stalled on seals, memory backpressure and L0 backlog.")
	for c, name := range StallCauseNames {
		f.stallByCause[c] = reg.Counter(`flodb_write_stall_by_cause_nanoseconds_total{cause="`+name+`"}`,
			"Writer stall time by cause: seal (a seal's grace period), memtable (Memtable full) or l0 (L0 backlog).")
	}
	f.stallLat = reg.Histogram("flodb_write_stall_seconds", "Per-op writer stall time on drains and backpressure.")
	return nil
}

// Open attaches the engine's disk component, its commit log's metrics
// and its policy, and registers the views over the first two.
func (f *Front) Open(store *Store, wm *wal.Metrics, eng Engine) {
	f.store, f.eng = store, eng
	registerMetrics(f.reg, store, wm)
}

// Registry is the metrics registry, for the engine's own metrics.
func (f *Front) Registry() *obs.Registry { return f.reg }

// Events is the structured event log, for the engine's disk component,
// log segments and background work.
func (f *Front) Events() *obs.EventLog { return f.events }

// Store is the disk component.
func (f *Front) Store() *Store { return f.store }

// Check is the closed and context test every call starts with, and the
// one an engine repeats at each lap of an unbounded wait.
func (f *Front) Check(ctx context.Context) error {
	if f.closed.Load() {
		return ErrClosed
	}
	return ctx.Err()
}

// BackgroundErr returns the first failure of the engine's background
// persistence, or nil.
func (f *Front) BackgroundErr() error {
	if p := f.bgErr.Load(); p != nil {
		return *p
	}
	return nil
}

// SetBackgroundErr records err, if it is the first background failure.
func (f *Front) SetBackgroundErr(err error) {
	if err != nil {
		f.bgErr.CompareAndSwap(nil, &err)
	}
}

// Shut closes the store to new operations and stops the engine's
// background work. It reports whether this call did the closing: an
// engine's Close runs its final flush only then.
func (f *Front) Shut() bool {
	if f.closed.Swap(true) {
		return false
	}
	f.eng.Stop()
	return true
}

// CrashForTesting abandons the store the way a crash would: background
// work stops, every live WAL segment is abandoned (its unflushed staging
// tail is LOST, modeling the buffers a crash takes), and no close-time
// flush or sync runs. The directory is left exactly as a post-crash
// recovery would find it. Durability tests use it to open the
// acked-but-lost window deliberately; production code must use Close.
func (f *Front) CrashForTesting() {
	if f.Shut() {
		f.store.Crash(f.eng.Log())
	}
}

// --- Writes -------------------------------------------------------------------

// Put inserts or overwrites key through the engine's write policy. The
// store keeps no reference to key or value: the caller may reuse its
// buffers as soon as Put returns.
func (f *Front) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	if err := f.Check(ctx); err != nil {
		return err
	}
	f.ops.Puts.Add(1)
	start := Clock()
	err := f.update(ctx, keys.KindSet, key, value, opts)
	f.lat[opPut].Observe(Clock() - start)
	return err
}

// Delete writes a tombstone for key (§3.2: "a Put with a special tombstone
// value"). Like Put, it keeps no reference to key.
func (f *Front) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	if err := f.Check(ctx); err != nil {
		return err
	}
	f.ops.Deletes.Add(1)
	start := Clock()
	err := f.update(ctx, keys.KindDelete, key, nil, opts)
	f.lat[opDelete].Observe(Clock() - start)
	return err
}

func (f *Front) update(ctx context.Context, kind keys.Kind, key, value []byte, opts []kv.WriteOption) error {
	d, err := f.admit(opts)
	if err != nil {
		return err
	}
	w, off, err := f.eng.Write(ctx, kind, key, value, d)
	return f.commit(d, w, off, err)
}

// Apply commits every mutation in b atomically: the engine logs the batch
// as ONE record, which recovery replays all or nothing, so under
// DurabilitySync the whole batch costs one group-committed fsync. What a
// concurrent reader may see of a batch in flight is the engine's (see its
// batch policy).
func (f *Front) Apply(ctx context.Context, b *kv.Batch, opts ...kv.WriteOption) error {
	if err := f.Check(ctx); err != nil {
		return err
	}
	d, err := f.admit(opts)
	if err != nil || b == nil || b.Len() == 0 {
		return err
	}
	f.ops.Batches.Add(1)
	f.ops.BatchOps.Add(uint64(b.Len()))
	start := Clock()
	w, off, err := f.eng.Apply(ctx, b, d)
	err = f.commit(d, w, off, err)
	f.lat[opBatch].Observe(Clock() - start)
	return err
}

// admit is the test every write passes before the engine orders it, and
// folds the write's options over the default class.
func (f *Front) admit(opts []kv.WriteOption) (kv.Durability, error) {
	if err := f.BackgroundErr(); err != nil {
		return 0, err
	}
	if len(opts) == 0 {
		return f.durability, nil
	}
	d := kv.ResolveWriteOptions(f.durability, opts...).Durability
	if !d.Valid() {
		return 0, fmt.Errorf("storage: invalid durability %v", d)
	}
	return d, nil
}

// commit is the commit point of a write the engine ordered without error.
// A Sync-class write waits for the barrier over its record here, outside
// every lock, so concurrent committers coalesce in the WAL's group-commit
// queue instead of serializing the engine behind the disk.
func (f *Front) commit(d kv.Durability, w *wal.Writer, off int64, err error) error {
	if err != nil || d != kv.DurabilitySync {
		return err
	}
	return CommitSync(w, off)
}

// Sync is the durability barrier of the kv.Store contract: it blocks until
// every mutation acknowledged before the call is crash-durable. One
// group-committed fsync per live segment (at most two: the sealed one
// first, then the active one — prefix order) promotes the whole
// acked-but-buffered window; concurrent barriers and Sync-class writes
// coalesce in the commit queue.
func (f *Front) Sync(ctx context.Context) error {
	if err := f.Check(ctx); err != nil {
		return err
	}
	f.ops.SyncBarriers.Add(1)
	// A failed flush means sealed-segment records may be neither in
	// sstables nor syncable — don't claim a durable barrier over them.
	if err := f.BackgroundErr(); err != nil {
		return err
	}
	return SyncLog(f.eng.Log())
}

// Checkpoint writes an openable copy of the store into dir (which must
// not exist or be empty) while the store stays online: immutable sstables
// are hard-linked from a pinned version, the manifest is rewritten, and
// the WAL tail is copied, so the copy reopens holding a prefix-consistent
// state as of some point during the call. The live segments are synced
// first, which pulls that point as close to the call as the write stream
// allows. A memtable switch racing the copy leaves no hole: the copy
// reads the segments newest first, and a successor writes its sealed
// predecessor's records out before any of its own (wal's segment order).
// A None-class write has no record, so the copy holds it only once a
// flush has put it in a table.
func (f *Front) Checkpoint(ctx context.Context, dir string) error {
	if err := f.Check(ctx); err != nil {
		return err
	}
	if err := f.BackgroundErr(); err != nil {
		return err
	}
	f.ops.Checkpoints.Add(1)
	if err := SyncLog(f.eng.Log()); err != nil {
		return err
	}
	return f.store.Checkpoint(dir)
}

// --- Reads --------------------------------------------------------------------

// Get returns key's value as the engine finds it. The value returned is a
// copy: it belongs to the caller.
func (f *Front) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if err := f.Check(ctx); err != nil {
		return nil, false, err
	}
	f.ops.Gets.Add(1)
	start := Clock()
	v, ok, err := f.eng.Get(key)
	f.lat[opGet].Observe(Clock() - start)
	return keys.Clone(v), ok, err
}

// Scan returns all pairs with low <= key < high (nil bounds are open),
// copied out of one pinned view: a drained iterator. Prefer NewIterator
// for large or unbounded ranges.
func (f *Front) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	if err := f.Check(ctx); err != nil {
		return nil, err
	}
	f.ops.Scans.Add(1)
	start := Clock()
	it, err := f.ViewIterator(ctx, f.eng.View(), low, high)
	var pairs []kv.Pair
	if err == nil {
		pairs, err = kv.Collect(it)
	}
	f.lat[opScan].Observe(Clock() - start)
	return pairs, err
}

// NewIterator returns a streaming cursor over low <= key < high (nil
// bounds are open), over ONE view the engine pins when it opens: every
// pair it returns was current at that moment, however long the caller
// iterates. The range is never materialized, and Key and Value alias
// store memory until the cursor moves. An open iterator pins the
// sstables of the Version it reads (compaction cannot delete them) and
// whatever memory its view holds, until Close: close iterators promptly.
// The context is captured: every positioning call checks it.
func (f *Front) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if err := f.Check(ctx); err != nil {
		return nil, err
	}
	f.ops.Iterators.Add(1)
	return f.ViewIterator(ctx, f.eng.View(), low, high)
}

// Snapshot returns a read-only repeatable-read view pinned at the current
// state: a snapshot handle over the view the engine pins, holding its
// references until the handle's Close.
func (f *Front) Snapshot(ctx context.Context) (kv.View, error) {
	if err := f.Check(ctx); err != nil {
		return nil, err
	}
	if err := f.BackgroundErr(); err != nil {
		return nil, err
	}
	f.ops.Snapshots.Add(1)
	start := Clock()
	v := f.eng.View()
	d := Clock() - start
	f.lat[opSnapshot].Observe(d)
	f.events.Emit(obs.Event{Type: obs.EventSnapshotPin, Dur: d, Detail: fmt.Sprintf("seq bound %d", v.Seq)})
	s := new(snapHandle)
	s.init(f, v)
	return s, nil
}

// --- Telemetry ----------------------------------------------------------------

// Stats reports the store's counters, read off TelemetrySnapshot.
func (f *Front) Stats() kv.Stats { return kv.StatsOf(f.TelemetrySnapshot()) }

// TelemetrySnapshot freezes the metrics registry plus per-type event
// counts — the /metrics source and, through kv.StatsOf, Stats'.
func (f *Front) TelemetrySnapshot() obs.Snapshot {
	s := f.reg.Snapshot()
	s.Metrics = append(s.Metrics, obs.EventCountMetrics(f.events)...)
	return s
}

// TelemetryEvents returns up to n recent structured events (n <= 0: all
// retained).
func (f *Front) TelemetryEvents(n int) []obs.Event { return f.events.Recent(n) }

// --- Writer stalls ------------------------------------------------------------

// StallCause is what a writer waited on before its write could go in.
type StallCause uint8

const (
	StallSeal     StallCause = iota // a seal paused writers for its grace period (FloDB)
	StallMemtable                   // the memtable is full and the previous one still flushing
	StallL0                         // the L0 backlog stop
	NumStallCauses
)

// StallCauseNames label flodb_write_stall_by_cause_nanoseconds_total.
var StallCauseNames = [NumStallCauses]string{"seal", "memtable", "l0"}

// Stall is one write's waits, by cause: the wait in progress began at
// mark (0: none yet) and is on cause; earlier waits are in nanos.
type Stall struct {
	mark  time.Duration
	cause StallCause
	nanos [NumStallCauses]time.Duration
}

// Wait notes that the writer waits on c. The clock is read only when a
// wait starts or changes cause, not on every lap of a wait loop.
func (s *Stall) Wait(c StallCause) {
	if s.mark > 0 && s.cause == c {
		return
	}
	now := Clock()
	if s.mark > 0 {
		s.nanos[s.cause] += now - s.mark
	}
	s.mark, s.cause = now, c
}

// NoteStall records a writer's stall, if st says it had one: the time
// under each cause, their total, and the total as one observation. The
// wait in progress counts up to now: to the write it held up.
func (f *Front) NoteStall(st *Stall) {
	if st.mark <= 0 {
		return
	}
	st.nanos[st.cause] += Clock() - st.mark
	var total time.Duration
	for c, d := range st.nanos {
		if d > 0 {
			f.stallByCause[c].Add(uint64(d))
			total += d
		}
	}
	f.stallNanos.Add(uint64(total))
	f.stallLat.Observe(total)
}

// clockBase anchors Clock.
var clockBase = time.Now()

// Clock is the clock op latencies and stalls are read on: time since
// clockBase, one read of the monotonic clock (time.Now reads the wall
// clock too).
func Clock() time.Duration { return time.Since(clockBase) }
