// Package core implements FloDB: the two-level memory component of §3–§4
// on top of the disk component in internal/storage.
//
// Memory layout (Figure 1):
//
//	Membuffer  — small concurrent hash table (internal/membuffer), absorbs
//	             updates in O(1); partitioned by key MSBs.
//	Memtable   — large concurrent skiplist (internal/skiplist) with
//	             sequence numbers and in-place updates; directly flushable.
//	             Its nodes and keys live in arena chunks the GC never
//	             scans; values and their Entry stay on the heap.
//	Disk       — leveled sstables (internal/storage).
//
// Data flows downward: background draining threads move Membuffer entries
// into the Memtable with multi-inserts; the persisting thread flushes full
// Memtables to L0. Component switches use RCU (internal/rcu): install the
// new component, wait a grace period so no in-flight operation still
// writes the old one, then hand the old component to its consumer —
// exactly the never-blocking switch of §4.2. Every switch goes through
// one helper, sealMembuffer (drain.go).
//
// # Range reads
//
// Scan, NewIterator and Snapshot share one read path (snapshot.go): seal,
// draw a sequence bound, register it with the skiplists' Retention so
// later overwrites chain the versions the bound still needs, and stream
// (live Memtable resolved at the bound ∪ sealed Memtable ∪ pinned disk
// Version). That replaces Algorithm 3's restart-and-fallback conflict
// handling (§4.4): a reader never restarts and never blocks a writer past
// the seal's grace period.
//
// # The active pair
//
// The active Membuffer and Memtable are published as ONE atomic pointer to
// a generation pair. An operation loads the pair once inside an RCU read
// section and uses both components from it. This single-pointer design is
// what makes WAL truncation sound: an update is logged to the WAL segment
// of the pair's Memtable and lands in that same pair's Membuffer or
// Memtable, so when table W reaches disk — persist switches the pair and
// fully drains the old Membuffer into the sealed Memtable first — every
// update in WAL generations ≤ W is on disk and those segments can go.
//
// The paper's Get invariant (upper levels hold fresher data) is preserved
// by two rules. Within a pair the Membuffer always holds the newest
// version of any key present in it (in-place updates, §3.2). Across a
// seal, sequence numbers decide: a seal reserves a block of numbers for
// the retired Membuffer's entries before any writer resumes, so its drain
// numbers every pre-switch update at or below the seal point and every
// later write is numbered above it. The Memtable orders inserts by
// sequence number, so the drain can run while writers write the same
// Memtable, and Get weighs the draining Membuffer against a Memtable
// entry by the seal point. View and persist seals differ only in the
// Memtable the drain targets — the live one, or the sealed one below a
// fresh successor — and neither blocks a writer past its grace period
// (§4.2).
package core

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/membuffer"
	"flodb/internal/obs"
	"flodb/internal/rcu"
	"flodb/internal/skiplist"
	"flodb/internal/storage"
	"flodb/internal/wal"
)

// generation is the atomically-published active pair. mbf is nil when the
// Membuffer is disabled (the Fig 17 "No HT" ablation).
type generation struct {
	mbf *membuffer.Buffer
	mtb *memtable
}

// over returns the pair of g's Membuffer with mtb: g itself when that is
// already its Memtable. Published pairs are immutable, so republishing
// one is safe.
func (g *generation) over(mtb *memtable) *generation {
	if g == nil || g.mtb == mtb {
		return g
	}
	return &generation{mbf: g.mbf, mtb: mtb}
}

// DB is a FloDB instance.
type DB struct {
	cfg Config

	store *storage.Store // nil iff cfg.DropPersist

	// seq is the global sequence number ("obtained via an atomic
	// increment operation", §4.2).
	seq atomic.Uint64

	// gen is the active (Membuffer, Memtable) pair; immGen and immMtb are
	// the immutable components of Algorithm 2's Get order. immGen is the
	// pair a seal retired while its Membuffer (IMM_MBF) drains into its
	// Memtable: the live one for a view seal, the sealed one (immMtb) for
	// a persist seal. immSeal is that seal's seal point (MaxUint64 until it
	// is drawn), and seals counts the seals begun, so a reader can tell
	// that the immGen and immSeal it loaded belong to one seal.
	gen     atomic.Pointer[generation]
	immGen  atomic.Pointer[generation]
	immMtb  atomic.Pointer[memtable]
	immSeal atomic.Uint64
	seals   atomic.Uint64

	// memtableTarget is the Memtable size that triggers persisting and
	// mbfCfg the geometry of every Membuffer, both fixed at Open by the
	// memory split.
	memtableTarget int64
	mbfCfg         membuffer.Config

	// domain covers every operation that loads gen and writes through it;
	// switches synchronize on it.
	domain *rcu.Domain

	// pauseWriters is raised by every seal from before its switch until it
	// has reserved its block of sequence numbers, a grace period later. It
	// holds back the direct-to-Memtable write path and the background
	// drainers (Algorithm 3 line 4), so between the switch and the seal
	// point nothing draws a sequence number; the drain itself runs after
	// the flag is lowered.
	pauseWriters atomic.Bool

	// drainMu serializes the switch+drain critical flows: every
	// sealMembuffer caller and batch application.
	drainMu sync.Mutex
	// spare is the pair whose Membuffer the latest seal drained empty,
	// which the next seal recycles; guarded by drainMu.
	spare *generation
	// persistMu serializes whole persist cycles (persistOnce and
	// Checkpoint's forced flush), so two flushes never interleave their
	// seal→write→install steps. Snapshot does not take it: pinning is a
	// seal + seq bound under drainMu alone.
	persistMu sync.Mutex

	// snapMu guards snapBounds, the refcounted set of active sequence
	// bounds, sorted ascending (every open iterator and snapshot handle
	// holds a ref on its bound). retention publishes the set to every
	// memtable skiplist so in-place updates chain the versions those
	// bounds still need; with no reader open the set is empty and updates
	// stay destructive (§3.2's single-versioned memory component).
	snapMu     sync.Mutex
	snapBounds []boundRef
	retention  skiplist.Retention
	// iterFrames recycles the merge machinery of closed iterators.
	iterFrames sync.Pool

	persistCh chan struct{}
	// persistErr records the first background persist failure; surfaced
	// on subsequent writes and Close.
	persistErr atomic.Pointer[error]

	// walMetrics is shared by every WAL segment the store creates, so
	// the acked-vs-durable boundary (Stats.AckedSeq/DurableSeq) spans
	// generation switches.
	walMetrics wal.Metrics

	// handles recycles RCU reader handles across operations.
	handles *sync.Pool

	closing chan struct{}
	closed  atomic.Bool
	wg      sync.WaitGroup

	// testHook, when a test sets it, runs at the named points of the drain
	// and persist protocols so the test can park a thread there.
	testHook atomic.Pointer[func(at hookPoint)]

	// reg is the metrics registry (internal/obs) every stat counter and
	// latency histogram lives in; events is the structured event log
	// (see telemetry.go).
	reg    *obs.Registry
	events *obs.EventLog
	stats  statCounters
}

// statCounters are the DB's operation counters and latency histograms.
// Each field is a metric REGISTERED in db.reg (initObs wires them), so
// kv.Stats and the /metrics exposition read the same atomics — the Stats
// struct is a view over the registry, not a second set of counts.
// Recording is a single atomic add; the counters every Put or Get bumps
// are striped (obs.StripedCounter), as are the histograms, so that add
// writes no line another core writes.
type statCounters struct {
	kv.OpCounters
	membufferHits, memtableWrites *obs.StripedCounter
	drainedEntries, drainBatches  *obs.Counter
	persists                      *obs.Counter
	// stallNanos accumulates time WRITERS (Put/Delete/Apply) spent
	// stalled on seals, memory-component backpressure and an L0 backlog,
	// whether the write then completed or gave up (background drainers'
	// own sleeps are excluded); stallByCause splits it by what the writer
	// waited on (stallCause). inPlaceHits counts Membuffer updates that
	// overwrote a resident key in place (no new drain debt).
	stallNanos   *obs.Counter
	stallByCause [numStallCauses]*obs.Counter
	inPlaceHits  *obs.StripedCounter

	putLat, getLat, deleteLat  *obs.Histogram
	scanLat, batchLat, snapLat *obs.Histogram
	// stallLat distributes the per-op writer stall time whose total
	// feeds stallNanos: it tells a few 100ms stalls from many 1ms ones.
	stallLat *obs.Histogram
}

// Open creates or opens a FloDB store.
func Open(cfg Config) (*DB, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	db := &DB{
		cfg:            cfg,
		memtableTarget: cfg.memtableTargetBytes(),
		mbfCfg:         cfg.membufferConfig(),
		domain:         rcu.NewDomain(),
		persistCh:      make(chan struct{}, 1),
		closing:        make(chan struct{}),
	}
	db.handles = &sync.Pool{New: func() any { return db.domain.Reader() }}
	// The registry must exist before the first counter increment or
	// event emission — i.e. before recovery and the background loops.
	db.initObs()

	if !cfg.DropPersist {
		scfg := cfg.Storage
		scfg.Events = db.events
		store, err := storage.Open(cfg.Dir, scfg)
		if err != nil {
			return nil, err
		}
		db.store = store
		db.seq.Store(store.LastSeq())
		if err := db.recoverWALs(); err != nil {
			store.Close()
			return nil, err
		}
	}
	storage.RegisterMetrics(db.reg, db.store, &db.walMetrics)

	mt, err := db.newMemtable()
	if err != nil {
		if db.store != nil {
			db.store.Close()
		}
		return nil, err
	}
	g := &generation{mtb: mt}
	if !cfg.DisableMembuffer {
		g.mbf = membuffer.New(db.mbfCfg)
	}
	db.gen.Store(g)
	if db.store != nil && !cfg.DisableWAL {
		if err := db.store.SetLogNum(mt.walNum, db.seq.Load()); err != nil {
			db.store.Close()
			return nil, err
		}
	}

	if !cfg.DisableMembuffer {
		for i := 0; i < cfg.DrainThreads; i++ {
			db.wg.Add(1)
			go db.drainLoop()
		}
	}
	db.wg.Add(1)
	go db.persistLoop()
	return db, nil
}

// boundRef is one active sequence bound and its reference count.
type boundRef struct {
	seq  uint64
	refs int
}

// registerBound adds (or re-references) an active bound and, when the set
// changed, republishes it. pinView calls it while writers are paused, so
// the first post-bound overwrite of any key is guaranteed to observe the
// bound and chain the displaced version; further refs on an
// already-registered bound need no pause and no republication.
func (db *DB) registerBound(b uint64) {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	i := db.findBound(b)
	if i < len(db.snapBounds) && db.snapBounds[i].seq == b {
		db.snapBounds[i].refs++
		return
	}
	db.snapBounds = append(db.snapBounds, boundRef{})
	copy(db.snapBounds[i+1:], db.snapBounds[i:])
	db.snapBounds[i] = boundRef{seq: b, refs: 1}
	db.publishBoundsLocked()
}

// unregisterBound drops one reference; chains retained for a fully
// released bound are pruned lazily by subsequent updates.
func (db *DB) unregisterBound(b uint64) {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	i := db.findBound(b)
	if i == len(db.snapBounds) || db.snapBounds[i].seq != b {
		return
	}
	if db.snapBounds[i].refs--; db.snapBounds[i].refs > 0 {
		return
	}
	db.snapBounds = append(db.snapBounds[:i], db.snapBounds[i+1:]...)
	db.publishBoundsLocked()
}

// findBound returns the position of the first bound >= b. New bounds are
// drawn from the sequence counter, so they almost always belong at the
// end; the set is a handful of entries either way.
func (db *DB) findBound(b uint64) int {
	i := len(db.snapBounds)
	for i > 0 && db.snapBounds[i-1].seq >= b {
		i--
	}
	return i
}

func (db *DB) publishBoundsLocked() {
	bounds := make([]uint64, len(db.snapBounds))
	for i, r := range db.snapBounds {
		bounds[i] = r.seq
	}
	db.retention.Set(bounds)
}

// hookPoint names a place the test hook is called from.
type hookPoint int

const (
	// hookSealDraining: the sealer has let writers resume and is about to
	// drain a retired Membuffer that holds entries.
	hookSealDraining hookPoint = iota
	// hookDrainerClaimed: a background drainer, inside its read section,
	// has claimed a batch and is about to insert it.
	hookDrainerClaimed
	// hookGetWeighing: a Get has found its key in a draining Membuffer and
	// in the Memtable, and is about to weigh them by the seal point.
	hookGetWeighing
	// hookPersisting: the persisting thread has sealed a Memtable and is
	// about to flush it.
	hookPersisting
)

func (db *DB) hook(at hookPoint) {
	if f := db.testHook.Load(); f != nil {
		(*f)(at)
	}
}

// newMemtable allocates a fresh memtable with its WAL segment.
func (db *DB) newMemtable() (*memtable, error) {
	m := newMemtableList(db.memtableTarget)
	m.list.SetRetention(&db.retention)
	if db.cfg.DisableWAL || db.store == nil {
		return m, nil
	}
	m.walNum = db.store.NewFileNum()
	w, err := wal.Create(storage.WALFileName(db.cfg.Dir, m.walNum), wal.Options{
		Metrics:      &db.walMetrics,
		WriteThrough: db.cfg.WALWriteThrough,
		Events:       db.events,
	})
	if err != nil {
		return nil, err
	}
	m.wal = w
	return m, nil
}

// recoverWALs replays WAL segments >= the manifest's log number, flushing
// each recovered memtable to L0 (LevelDB's recovery shape).
func (db *DB) recoverWALs() error {
	if db.cfg.DisableWAL {
		return nil
	}
	logNum := db.store.LogNum()
	entries, err := os.ReadDir(db.cfg.Dir)
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
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for _, num := range segs {
		m := newMemtableList(db.memtableTarget)
		m.walNum = num
		// ForEachOp handles both single-op records and multi-op batch
		// records. Atomicity of a batch is inherited from WAL framing: a
		// torn batch record fails its CRC as a whole, so recovery replays
		// either every op of a batch or none.
		err := wal.ReplayAll(storage.WALFileName(db.cfg.Dir, num), func(rec []byte) error {
			return kv.ForEachOp(rec, func(kind keys.Kind, key, value []byte) error {
				e := &skiplist.Entry{
					Value:     keys.Clone(value),
					Seq:       db.seq.Add(1),
					Tombstone: kind == keys.KindDelete,
				}
				m.insert(key, keys.Hash(key), e)
				return nil
			})
		})
		if err != nil {
			return fmt.Errorf("core: replay wal %d: %w", num, err)
		}
		if !m.list.Empty() {
			if _, err := db.store.Flush(newMemtableIter(m), num+1, db.seq.Load()); err != nil {
				return fmt.Errorf("core: flush recovered wal %d: %w", num, err)
			}
		}
		os.Remove(storage.WALFileName(db.cfg.Dir, num))
	}
	return nil
}

// Close drains and flushes the memory component, then shuts down.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	close(db.closing)
	select {
	case db.persistCh <- struct{}{}:
	default:
	}
	db.wg.Wait()

	firstErr := db.loadPersistErr()

	g := db.gen.Load()
	flushed := false
	if db.store != nil && firstErr == nil {
		// Final persist: drain the membuffer into the memtable and flush.
		if g.mbf != nil {
			g.mbf.Freeze()
			db.domain.Synchronize()
			db.drainBuffer(g.mbf, g.mtb, &db.seq)
		}
		if !g.mtb.list.Empty() {
			newLog := g.mtb.walNum + 1
			if db.cfg.DisableWAL {
				newLog = db.store.NewFileNum()
			}
			if _, err := db.store.Flush(newMemtableIter(g.mtb), newLog, db.seq.Load()); err != nil {
				firstErr = err
			} else {
				flushed = true
				if !db.cfg.DisableWAL {
					if g.mtb.wal != nil {
						g.mtb.wal.MarkContentsDurable()
					}
					os.Remove(storage.WALFileName(db.cfg.Dir, g.mtb.walNum))
				}
			}
		} else {
			flushed = true // nothing unpersisted; the WAL tail is redundant
		}
	}
	// When the final flush was skipped (background persist failure) or
	// failed, the WAL tail is the only copy of acked writes — and
	// wal.Writer.Close does not fsync. Sync it so a clean shutdown never
	// widens the acked-but-lost window, then close. A persist failure may
	// also strand the sealed generation: its segment still holds acked
	// records, so it gets the same sync-then-close treatment.
	if !flushed {
		if err := g.mtb.syncWAL(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := g.mtb.closeWAL(); err != nil && firstErr == nil {
		firstErr = err
	}
	if imm := db.immMtb.Load(); imm != nil && imm.wal != nil {
		if err := imm.syncWAL(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := imm.closeWAL(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if db.store != nil {
		if err := db.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Sync is the durability barrier of the kv.Store contract: it blocks
// until every mutation acknowledged before the call is crash-durable.
// One group-committed fsync per live WAL segment (at most two: the sealed
// generation's and the active one's) promotes the whole acked-but-
// buffered window; concurrent barriers and Sync-class writes coalesce in
// the commit queue. With the WAL disabled there is no buffered window to
// promote and the barrier is a no-op.
func (db *DB) Sync(ctx context.Context) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	db.stats.SyncBarriers.Add(1)
	if db.store == nil || db.cfg.DisableWAL {
		return nil
	}
	// A failed persist means sealed-generation records may be neither in
	// sstables nor syncable — don't claim a durable barrier over them.
	if err := db.loadPersistErr(); err != nil {
		return err
	}
	// Active generation loaded first: if a switch races us, the pair we
	// loaded becomes the sealed one and we still sync the segment that
	// holds every pre-call record. Segments retired meanwhile are durable
	// through their sstable flush (syncWAL maps ErrClosed to nil).
	g := db.gen.Load()
	if imm := db.immMtb.Load(); imm != nil {
		if err := imm.syncWAL(); err != nil {
			return err
		}
	}
	return g.mtb.syncWAL()
}

func (db *DB) loadPersistErr() error {
	if p := db.persistErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (db *DB) setPersistErr(err error) {
	if err == nil {
		return
	}
	db.persistErr.CompareAndSwap(nil, &err)
}

// CrashForTesting abandons the store the way a crash would: background
// threads stop, every live WAL segment is Abandoned (its unflushed
// staging tail is LOST, modeling the buffers a crash takes), and no
// close-time flush or sync runs. The directory is left exactly as a
// post-crash recovery would find it. Durability tests use it to open the
// acked-but-lost window deliberately; production code must use Close.
func (db *DB) CrashForTesting() {
	if db.closed.Swap(true) {
		return
	}
	close(db.closing)
	db.wg.Wait()
	if imm := db.immMtb.Load(); imm != nil && imm.wal != nil {
		imm.wal.Abandon()
	}
	if g := db.gen.Load(); g.mtb.wal != nil {
		g.mtb.wal.Abandon()
	}
	if db.store != nil {
		db.store.Close()
	}
}

// Stats returns a snapshot of operation counters.
func (db *DB) Stats() kv.Stats { return kv.StatsOf(db.TelemetrySnapshot()) }

// Store exposes the disk component (diagnostics; nil in DropPersist mode).
func (db *DB) Store() *storage.Store { return db.store }

// WaitDiskQuiesce blocks until pending persists and compactions settle —
// the "wait until draining to disk and compactions have completed" step
// of the paper's experiment setup (§5.2).
func (db *DB) WaitDiskQuiesce() {
	for db.needsPersist() || db.immMtb.Load() != nil {
		db.signalPersist()
		time.Sleep(time.Millisecond)
	}
	if db.store != nil {
		db.store.WaitForCompactions()
	}
}

// Seq returns the current global sequence number (diagnostics).
func (db *DB) Seq() uint64 { return db.seq.Load() }

var (
	_ kv.Store         = (*DB)(nil)
	_ kv.StatsProvider = (*DB)(nil)
)
