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
// Scan, NewIterator and Snapshot share one read path. pinView
// (snapshot.go) seals, draws a sequence bound, registers it with the
// skiplists' Retention so later overwrites chain the versions the bound
// still needs, and returns the view: live Memtable resolved at the bound,
// sealed Memtable, pinned disk Version. That replaces Algorithm 3's
// restart-and-fallback conflict handling (§4.4): a reader never restarts
// and never blocks a writer past the seal's grace period. The handles
// over a view — the iterator, the snapshot, the bounded Get — are
// internal/storage's, the one read view every engine shares; this
// package supplies how a Memtable answers at a bound (memtable.Get and
// Cursor) and, as the view's release, unregisterBound.
//
// # The operation shell
//
// DB's kv.Store calls are storage.Front's, the shell FloDB shares with
// the four baselines: the closed, context and background-error checks,
// durability, the op counters and latencies, the stall counters and the
// event log. DB supplies the policy behind them as a storage.Engine:
// update (the Membuffer fast path and admit), apply, get (Algorithm 2),
// pinView, its log segments and checkpoint; and it keeps its own Close,
// which drains the Membuffer last.
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
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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

// DB is a FloDB instance. Its kv.Store calls are the shell every engine
// shares (storage.Front); what DB adds is the memory component's policy.
type DB struct {
	storage.Front
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

	persistCh chan struct{}

	// walMetrics is shared by every WAL segment the store creates, so
	// the acked-vs-durable boundary (Stats.AckedSeq/DurableSeq) spans
	// generation switches.
	walMetrics wal.Metrics

	// handles recycles RCU reader handles across operations.
	handles *sync.Pool

	closing chan struct{}
	wg      sync.WaitGroup

	// testHook, when a test sets it, runs at the named points of the drain
	// and persist protocols so the test can park a thread there.
	testHook atomic.Pointer[func(at hookPoint)]

	// stats are the memory component's own counters; the op counters,
	// latencies and stalls are the Front's (see telemetry.go).
	stats statCounters
}

// statCounters are the memory component's counters. Each field is a
// metric REGISTERED in the Front's registry (initObs wires them), so
// kv.Stats and the /metrics exposition read the same atomics. The
// counters every Put bumps are striped (obs.StripedCounter), so that add
// writes no line another core writes. inPlaceHits counts Membuffer
// updates that overwrote a resident key in place (no new drain debt).
type statCounters struct {
	membufferHits, memtableWrites *obs.StripedCounter
	drainedEntries, drainBatches  *obs.Counter
	persists                      *obs.Counter
	inPlaceHits                   *obs.StripedCounter
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
	if err := db.Init(cfg.Durability); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	db.initObs()

	if !cfg.DropPersist {
		scfg := cfg.Storage
		scfg.Events = db.Events()
		store, err := storage.Open(cfg.Dir, scfg)
		if err != nil {
			return nil, err
		}
		db.store = store
		seq, err := store.RecoverLogs(func() storage.ReplayMem { return newMemtableList(db.memtableTarget) })
		if err != nil {
			store.Close()
			return nil, err
		}
		db.seq.Store(seq)
	}
	db.Front.Open(db.store, &db.walMetrics, storage.Engine{
		Write:      db.update,
		Apply:      db.apply,
		Get:        db.get,
		View:       db.pinView,
		Release:    db.unregisterBound,
		Logs:       db.logs,
		Checkpoint: db.checkpoint,
		Stop:       db.stop,
	})

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
	if db.store != nil {
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

// newMemtable allocates a fresh memtable with its WAL segment (none
// without a disk component).
func (db *DB) newMemtable() (*memtable, error) {
	m := newMemtableList(db.memtableTarget)
	m.list.SetRetention(&db.retention)
	if db.store == nil {
		return m, nil
	}
	var err error
	m.walNum, m.wal, err = db.store.CreateLog(wal.Options{
		Metrics:      &db.walMetrics,
		WriteThrough: db.cfg.WALWriteThrough,
		Events:       db.Events(),
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Close drains and flushes the memory component, then shuts down.
func (db *DB) Close() error {
	if !db.Shut() {
		return nil
	}
	err := db.BackgroundErr()
	if db.store == nil {
		return err // DropPersist: no log and nothing to persist
	}
	g := db.gen.Load()
	if err == nil && g.mbf != nil {
		// Final persist: drain the Membuffer into the Memtable, which
		// Shutdown flushes. A persist failure may have stranded the sealed
		// generation; Shutdown syncs its segment before closing it.
		g.mbf.Freeze()
		db.domain.Synchronize()
		db.drainBuffer(g.mbf, g.mtb, &db.seq)
	}
	return db.store.Shutdown(err, db.sealedLog(), g.mtb.NewIterator(), g.mtb.wal, g.mtb.walNum, db.seq.Load())
}

// stop ends the background work: the drainers and the persister.
func (db *DB) stop() {
	close(db.closing)
	db.signalPersist()
	db.wg.Wait()
}

// logs loads the live WAL segments for a barrier over them. The active
// generation is loaded first: if a switch races the load, the pair loaded
// becomes the sealed one and the barrier still covers the segment that
// holds every earlier record. Segments retired meanwhile are durable
// through their sstable flush.
func (db *DB) logs() (sealed, active *wal.Writer) {
	g := db.gen.Load()
	return db.sealedLog(), g.mtb.wal
}

// sealedLog is the segment of the sealed Memtable a persist is flushing,
// if any: a Sync-class commit and the Sync barrier make it durable before
// the active one. persistCycle publishes immMtb before the new
// generation, so a writer whose record landed in the successor segment is
// guaranteed to see the sealed one here while it is still live.
func (db *DB) sealedLog() *wal.Writer { return db.immMtb.Load().log() }

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
