// Package shard implements a range-partitioned sharded engine: one
// kv.Store served by N independent FloDB (core.DB) instances, each with
// its own directory, WAL, two-level memory component, compactor — and
// its own COMMIT PIPELINE: a lock-free per-shard queue drained by a
// dedicated committer goroutine that coalesces queued writes into
// group commits.
//
// FloDB's thesis is scaling the memory component across cores; sharding
// is the next step past a single memory component. Partitioning the
// keyspace lets writers, background drains, memtable flushes and WAL
// group-commits proceed independently per shard: N shards mean N
// uncontended Membuffers, N drain pools, N persist pipelines, N
// group-commit fsync queues and N committers, so write throughput
// scales with shard count until the disk itself saturates. The commit
// pipeline is what lets N shards commit in parallel: a routed write
// costs its producer one CAS to enqueue, and the committer amortizes
// the engine's per-commit costs (WAL record framing, the drain lock,
// the RCU read section, the fsync) across every write queued behind it
// — the committer-side analogue of the paper's multi-insert drain
// (§4.2).
//
// # Routing and topology
//
// Keys route by RANGE: n-1 ascending boundary keys cut the keyspace,
// shard i owning [boundary[i-1], boundary[i]). Range partitioning keeps
// each shard's keys contiguous, so a bounded Scan touches only the
// shards its range overlaps and a full iteration merges already-
// disjoint sorted streams. The default UniformSplitter cuts the 8-byte
// big-endian keyspace into n equal slices. A Splitter that returns nil
// boundaries selects the HASH fallback (FNV-1a mod n) for keyspaces
// with no exploitable order: balance under arbitrary skew, at the cost
// of every Scan consulting every shard — and of a frozen layout, since
// hash routing has no boundaries to move.
//
// The layout lives in a versioned SHARDS manifest at the store root and
// is no longer fixed for life: with Config.Dynamic enabled, a
// per-shard workload sensor (§4.4's sensor reads, turned outward)
// feeds a rebalance controller that SPLITS a hot shard at a sampled
// median of its recent write keys and MERGES cold neighbors. Every
// topology change bumps the manifest EPOCH and commits by renaming the
// manifest last — children are built and flushed in fresh directories
// first, so a crash at any instant reopens either the old epoch or the
// new one, never a mix. Writers to the affected range are fenced only
// for the duration of the handoff (their queue is retired; they re-route
// through the next topology), and pinned snapshots keep the old epoch's
// engines readable until released.
//
// # Cross-shard semantics (the honest caveats)
//
//   - Put/Delete/Get touch exactly one shard and keep core.DB's
//     single-shard guarantees unchanged. A write is acked only after its
//     committer group-committed it, so "returned nil" still means
//     "committed at the op's durability class".
//   - Apply splits a batch by shard and commits the sub-batches
//     CONCURRENTLY. Each sub-batch lands contiguously inside one WAL
//     record on its shard — atomic per shard across a crash — but there
//     is no cross-shard commit protocol: a crash mid-Apply may recover
//     some shards' slices of the batch and not others. What recovery
//     guarantees is that each shard individually holds a hole-free
//     prefix of ITS commit order, with each surviving sub-batch intact.
//   - Sync fans out and waits until every shard's DurableSeq covers its
//     AckedSeq: after Sync returns, everything previously acked on every
//     shard is crash-durable.
//   - Snapshot takes a brief cross-shard WRITE BARRIER (committers
//     pause between groups, readers do not) while it pins all N
//     per-shard snapshots, so the handle is one globally consistent
//     cut — and it pins the TOPOLOGY too: the view keeps routing
//     through the epoch it was taken under, even across later splits.
//   - NewIterator merges the overlapping shards' cursors on the caller's
//     goroutine (kv.Merge with no policy: routing makes their keys
//     disjoint). Each shard's cursor is its own point-in-time view,
//     opened one after another; there is no cross-shard cut.
//   - Checkpoint fans out into per-shard subdirectories plus a copied
//     manifest, written LAST, so a partial checkpoint is unopenable
//     rather than silently missing shards.
package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flodb/internal/core"
	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
)

// ErrClosed wraps kv.ErrClosed for operations on a closed sharded store.
var ErrClosed = fmt.Errorf("shard: %w", kv.ErrClosed)

// ErrDynamicHashRouting reports Config.Dynamic enabled over hash
// routing: a hash-routed shard covers the whole keyspace, so there is no
// boundary to split or merge.
var ErrDynamicHashRouting = errors.New("shard: dynamic sharding needs range routing: a hash-routed shard spans the whole keyspace, leaving no boundary to split")

// A Splitter chooses the shard boundaries at store creation.
type Splitter interface {
	// Boundaries returns the n-1 strictly ascending boundary keys that
	// cut the keyspace into n ranges: shard 0 owns keys < b[0], shard i
	// owns [b[i-1], b[i]), shard n-1 owns keys >= b[n-2]. Returning nil
	// selects hash routing instead (the fallback for keyspaces whose
	// order carries no balance information).
	Boundaries(n int) [][]byte
}

// UniformSplitter cuts the 8-byte big-endian keyspace into n equal
// ranges. It is the default: balanced for uniformly spread fixed-width
// keys (the paper's workload shape), and for anything hashed into the
// 64-bit space before use as a key.
type UniformSplitter struct{}

// Boundaries returns n-1 evenly spaced 8-byte keys.
func (UniformSplitter) Boundaries(n int) [][]byte {
	step := ^uint64(0)/uint64(n) + 1
	out := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, keys.EncodeUint64(step*uint64(i)))
	}
	return out
}

// HashSplitter declines to pick boundaries, selecting the hash-routing
// fallback: keys route by FNV-1a hash mod n. Balanced under arbitrary
// key skew, but every Scan and iterator must consult all shards, and
// the layout can never be rebalanced (Dynamic is rejected).
type HashSplitter struct{}

// Boundaries returns nil: hash routing.
func (HashSplitter) Boundaries(int) [][]byte { return nil }

// Dynamic configures sensor-driven shard splitting and merging.
type Dynamic struct {
	// Enabled turns the rebalance controller on. Requires range routing.
	Enabled bool
	// MinShards and MaxShards bound the shard count the controller may
	// reach. Defaults: 1 and max(initial count, 8).
	MinShards int
	MaxShards int
	// Interval is the sensor window length. Default 200ms.
	Interval time.Duration
	// SplitFactor: a shard whose share of the window's ops exceeds
	// SplitFactor times the fair share (1/n) is hot. Default 2.
	SplitFactor float64
	// MergeFactor: an adjacent pair whose combined share is below
	// MergeFactor times the fair share is cold. Default 0.5.
	MergeFactor float64
	// MinWindowOps is the least store-wide traffic in a window worth
	// acting on; quieter windows reset the streaks. Default 512.
	MinWindowOps uint64
	// Hysteresis is how many consecutive windows a shard must stay hot
	// (or a pair cold) before the controller acts. Default 2.
	Hysteresis int
	// Cooldown is how many windows the controller sits out after a
	// split or merge, letting the new layout's sensor readings settle.
	// Default 3.
	Cooldown int
}

func (d Dynamic) withDefaults(initial int) (Dynamic, error) {
	if !d.Enabled {
		return d, nil
	}
	if d.MinShards == 0 {
		d.MinShards = 1
	}
	if d.MaxShards == 0 {
		d.MaxShards = max(initial, 8)
	}
	if d.MinShards < 1 || d.MaxShards < d.MinShards {
		return d, fmt.Errorf("shard: Dynamic range [%d, %d] is invalid", d.MinShards, d.MaxShards)
	}
	if d.Interval <= 0 {
		d.Interval = 200 * time.Millisecond
	}
	if d.SplitFactor <= 1 {
		d.SplitFactor = 2
	}
	if d.MergeFactor <= 0 || d.MergeFactor >= 1 {
		d.MergeFactor = 0.5
	}
	if d.MinWindowOps == 0 {
		d.MinWindowOps = 512
	}
	if d.Hysteresis < 1 {
		d.Hysteresis = 2
	}
	if d.Cooldown < 1 {
		d.Cooldown = 3
	}
	return d, nil
}

// Config parameterizes a sharded store.
type Config struct {
	// Dir is the store root. Each shard lives in its own Dir/shard-NNN;
	// the SHARDS manifest at the root records the layout.
	Dir string
	// Shards is the number of partitions. Zero ADOPTS an existing
	// manifest's count (or means 1 on a fresh store). Reopening a static
	// store with a different non-zero count is an error; with Dynamic
	// enabled the manifest's count simply wins — the layout is the
	// controller's to change.
	Shards int
	// Splitter chooses the boundaries at creation; nil means
	// UniformSplitter. Ignored on reopen — the manifest wins.
	Splitter Splitter
	// Dynamic enables sensor-driven splitting and merging.
	Dynamic Dynamic
	// Core is the per-shard template. Dir is ignored (each shard gets
	// its subdirectory) and MemoryBytes is the TOTAL memory budget,
	// split evenly across shards so a sharded store competes against an
	// unsharded one at equal memory. Zero means each shard takes the
	// core default. With Core.AdaptiveMemory set, every shard runs its
	// OWN resize controller over its slice of the budget.
	Core core.Config
}

// Store is a sharded FloDB: one kv.Store over N core.DB instances, each
// behind its own commit pipeline. All methods are safe for concurrent
// use; Close must not race with other operations.
type Store struct {
	dir  string
	core core.Config // per-shard template; Dir is set per engine
	dyn  Dynamic

	// topo is the live topology. Rewrites swap whole tables; superseded
	// tables stay readable through the engine refs their snapshots hold.
	topo atomic.Pointer[table]

	// snapMu is the cross-shard write barrier: committers hold it shared
	// for the duration of one group commit, Snapshot holds it exclusive
	// while pinning all per-shard snapshots, freezing one global cut.
	// Topology swaps also run under it, so a snapshot sees a complete
	// epoch, never a mid-rewrite hybrid.
	snapMu sync.RWMutex

	closed  atomic.Bool
	crashed atomic.Bool

	// rebalMu serializes topology rewrites with each other and with
	// shutdown.
	rebalMu sync.Mutex
	quit    chan struct{} // stops the rebalance controller; nil when static
	wg      sync.WaitGroup

	splits, merges atomic.Uint64

	// Logical operation counters. Physical counters (WAL boundary,
	// flushes, memory-component traffic) aggregate from the shards; the
	// logical ones live here so a single fanned-out call counts once —
	// one Snapshot is one snapshot, not N.
	scans, iterators       atomic.Uint64
	snapshots, checkpoints atomic.Uint64
	batches, batchOps      atomic.Uint64
	syncBarriers           atomic.Uint64

	// events records store-level lifecycle moments (fan-outs, splits,
	// merges, queue spikes); per-shard events live in each core.DB's log
	// and the telemetry accessors merge the timelines. Nil when the
	// per-shard template disables telemetry.
	events *obs.EventLog

	// testHookPreManifest, when set, runs during a topology rewrite
	// after the children are flushed but BEFORE the manifest rename —
	// the crash window recovery must survive. A non-nil return simulates
	// the crash: the store abandons itself as CrashForTesting would.
	testHookPreManifest func() error
}

// Open creates or reopens a sharded store in cfg.Dir.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("shard: Config.Dir is required")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("shard: Shards %d is negative; want >= 1", cfg.Shards)
	}
	dyn, err := cfg.Dynamic.withDefaults(cfg.Shards)
	if err != nil {
		return nil, err
	}
	cfg.Dynamic = dyn
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}

	l, err := loadLayout(cfg.Dir)
	if err != nil {
		return nil, err
	}
	fresh := l == nil
	if fresh {
		// Refuse to overlay sharding onto a directory that already holds
		// something else (an unsharded store, a torn checkpoint): routing
		// its keys would silently shadow its data.
		entries, err := os.ReadDir(cfg.Dir)
		if err != nil {
			return nil, err
		}
		if len(entries) > 0 {
			return nil, fmt.Errorf("shard: %s is non-empty but has no %s manifest: not a sharded store", cfg.Dir, manifestName)
		}
		if cfg.Shards == 0 {
			cfg.Shards = 1
			if cfg.Dynamic.Enabled {
				cfg.Shards = cfg.Dynamic.MinShards
			}
		}
		if cfg.Dynamic.Enabled && (cfg.Shards < cfg.Dynamic.MinShards || cfg.Shards > cfg.Dynamic.MaxShards) {
			return nil, fmt.Errorf("shard: %d initial shards outside Dynamic range [%d, %d]", cfg.Shards, cfg.Dynamic.MinShards, cfg.Dynamic.MaxShards)
		}
		if l, err = buildLayout(cfg); err != nil {
			return nil, err
		}
	} else {
		if cfg.Shards != 0 && len(l.dirs) != cfg.Shards && !cfg.Dynamic.Enabled {
			return nil, fmt.Errorf("shard: %s holds %d shards, opened with %d: shard count is fixed at creation (pass 0 to adopt the layout, or enable Dynamic)", cfg.Dir, len(l.dirs), cfg.Shards)
		}
		// Sweep the debris of a rewrite that crashed around its manifest
		// rename, before any engine can mistake a half-built child (or a
		// retired parent) for live data.
		if err := removeOrphanDirs(cfg.Dir, l); err != nil {
			return nil, err
		}
	}
	if cfg.Dynamic.Enabled && l.hashed {
		return nil, ErrDynamicHashRouting
	}
	if fresh {
		if err := writeLayout(cfg.Dir, l); err != nil {
			return nil, err
		}
	}

	// The next directory index must clear every live directory even if an
	// older manifest (v1 has no counter) under-records it.
	next := l.nextDir
	for _, d := range l.dirs {
		var i int
		if _, err := fmt.Sscanf(d, "shard-%d", &i); err == nil && i+1 > next {
			next = i + 1
		}
	}

	s := &Store{dir: cfg.Dir, core: cfg.Core, dyn: cfg.Dynamic}
	if !cfg.Core.DisableTelemetry {
		s.events = obs.NewEventLog(0)
	}
	t := &table{
		epoch:      l.epoch,
		boundaries: l.boundaries,
		hashed:     l.hashed,
		nextDir:    next,
		changed:    make(chan struct{}),
	}
	for i, dname := range l.dirs {
		e, err := s.openEngine(dname, len(l.dirs))
		if err != nil {
			for _, open := range t.engines {
				open.release()
			}
			return nil, fmt.Errorf("shard: open shard %d: %w", i, err)
		}
		t.engines = append(t.engines, e)
	}
	s.topo.Store(t)
	for _, e := range t.engines {
		e.start(s)
	}
	if cfg.Dynamic.Enabled {
		s.quit = make(chan struct{})
		s.wg.Add(1)
		go s.rebalanceLoop()
	}
	return s, nil
}

// openEngine opens one shard directory as an engine (committer not yet
// started). count is the shard count the budget splits over.
func (s *Store) openEngine(dirName string, count int) (*engine, error) {
	sc := s.core
	sc.Dir = filepath.Join(s.dir, dirName)
	if s.core.MemoryBytes > 0 {
		sc.MemoryBytes = max(s.core.MemoryBytes/int64(count), 1)
	}
	// The block-cache budget is the TOTAL, like MemoryBytes: each shard
	// caches its own tables, so an even split keeps the process-wide
	// footprint at the configured size. (Table-cache capacity is per
	// shard — it bounds file descriptors, and each shard holds its own.)
	if s.core.Storage.BlockCacheBytes > 0 {
		sc.Storage.BlockCacheBytes = max(s.core.Storage.BlockCacheBytes/int64(count), 1)
	}
	db, err := core.Open(sc)
	if err != nil {
		return nil, err
	}
	e := &engine{
		db:      db,
		dir:     dirName,
		root:    s.dir,
		wake:    make(chan struct{}, 1),
		drained: make(chan struct{}),
		crashed: &s.crashed,
	}
	e.refs.Store(1) // the topology's reference
	return e, nil
}

// --- Routing -----------------------------------------------------------------

// ShardFor returns the index of the shard that currently owns key.
// Under Dynamic the answer is only stable within one epoch.
func (s *Store) ShardFor(key []byte) int {
	return s.topo.Load().shardFor(key)
}

// Count returns the current number of shards.
func (s *Store) Count() int { return len(s.topo.Load().engines) }

// Routing names the routing mode: "range" or "hash".
func (s *Store) Routing() string {
	if s.topo.Load().hashed {
		return routingHash
	}
	return routingRange
}

// pinTable acquires a reference on every engine of the current table,
// retrying across topology swaps; the caller must invoke the returned
// release exactly once.
func (s *Store) pinTable() (*table, func(), error) {
	for {
		if s.closed.Load() {
			return nil, nil, ErrClosed
		}
		t := s.topo.Load()
		pinned := make([]*engine, 0, len(t.engines))
		ok := true
		for _, e := range t.engines {
			if !e.acquire() {
				ok = false
				break
			}
			pinned = append(pinned, e)
		}
		if ok {
			return t, func() {
				for _, e := range pinned {
					e.release()
				}
			}, nil
		}
		for _, e := range pinned {
			e.release()
		}
	}
}

// pinKey acquires a reference on the engine that owns key.
func (s *Store) pinKey(key []byte) (*engine, error) {
	for {
		if s.closed.Load() {
			return nil, ErrClosed
		}
		t := s.topo.Load()
		if e := t.engines[t.shardFor(key)]; e.acquire() {
			return e, nil
		}
	}
}

// fanoutEngines runs fn once per engine concurrently and returns the
// first error in shard order.
func fanoutEngines(engines []*engine, fn func(i int, e *engine) error) error {
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func(i int, e *engine) {
			defer wg.Done()
			errs[i] = fn(i, e)
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- Writes ------------------------------------------------------------------

// Put routes key onto its shard's commit pipeline and blocks until the
// committer acks it at the write's durability class.
func (s *Store) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	return s.enqueue(ctx, key, value, keys.KindSet, opts)
}

// Delete routes key onto its shard's commit pipeline.
func (s *Store) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	return s.enqueue(ctx, key, nil, keys.KindDelete, opts)
}

func (s *Store) enqueue(ctx context.Context, key, value []byte, kind keys.Kind, opts []kv.WriteOption) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if ctx == nil {
		// The unsharded engine tolerates a nil Context on its fast path;
		// the pipeline parks ops on ctx.Done(), so normalize here.
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t := s.topo.Load()
	// Durability resolves at enqueue time (the template is shared, any
	// engine answers) so the committer can group same-class runs.
	d, err := t.engines[0].db.ResolveDurability(opts...)
	if err != nil {
		return err
	}
	op := getOp()
	op.ctx, op.key, op.value, op.kind, op.d = ctx, key, value, kind, d
	if kind == keys.KindDelete {
		op.dels = 1
	} else {
		op.puts = 1
	}
	for {
		e := t.engines[t.shardFor(key)]
		if wasEmpty, ok := e.queue.push(op); ok {
			e.combine(s, wasEmpty)
			break
		}
		// The shard retired under us (split, merge or close): wait for
		// the replacement topology and re-route.
		select {
		case <-t.changed:
		case <-ctx.Done():
			putOp(op)
			return ctx.Err()
		}
		if s.closed.Load() {
			putOp(op)
			return ErrClosed
		}
		t = s.topo.Load()
	}
	err = <-op.done
	putOp(op)
	return err
}

// splitBatch partitions b's ops by owning shard under t, preserving
// insertion order within each part (a later op on the same key still
// wins its sub-batch). A batch that lands on one shard passes through
// without copying.
func splitBatch(t *table, b *kv.Batch) (idxs []int, parts []*kv.Batch) {
	ops := b.Ops()
	owners := make([]int, len(ops))
	first, uniform := t.shardFor(ops[0].Key), true
	for i := range ops {
		owners[i] = t.shardFor(ops[i].Key)
		uniform = uniform && owners[i] == first
	}
	if uniform {
		return []int{first}, []*kv.Batch{b}
	}
	subs := make([]*kv.Batch, len(t.engines))
	for i := range ops {
		sub := subs[owners[i]]
		if sub == nil {
			sub = kv.NewBatch()
			subs[owners[i]] = sub
		}
		if ops[i].Kind == keys.KindDelete {
			sub.Delete(ops[i].Key)
		} else {
			sub.Put(ops[i].Key, ops[i].Value)
		}
	}
	for i, sub := range subs {
		if sub != nil {
			idxs = append(idxs, i)
			parts = append(parts, sub)
		}
	}
	return idxs, parts
}

// Apply splits b by shard and enqueues the sub-batches onto their
// commit pipelines concurrently, each landing contiguously inside one
// WAL record on its shard.
//
// Atomicity is PER SHARD, not cross-shard: a crash mid-Apply may recover
// the slice of the batch that landed on one shard and not another's.
// Each surviving slice is all-or-nothing, and each shard recovers a
// hole-free prefix of its own commit order. Under DurabilitySync the
// call returns only after every touched shard's group-committed fsync
// covers its slice — the fsyncs run in parallel, one queue per shard.
func (s *Store) Apply(ctx context.Context, b *kv.Batch, opts ...kv.WriteOption) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if b == nil || b.Len() == 0 {
		return nil
	}
	t := s.topo.Load()
	d, err := t.engines[0].db.ResolveDurability(opts...)
	if err != nil {
		return err
	}
	s.batches.Add(1)
	s.batchOps.Add(uint64(b.Len()))

	var inflight []*writeOp
	var firstErr error
	pending := []*kv.Batch{b}
	for len(pending) > 0 && firstErr == nil {
		sub := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		t = s.topo.Load()
		idxs, parts := splitBatch(t, sub)
		if sub == b && len(parts) > 1 {
			s.events.Emit(obs.Event{
				Type: obs.EventShardFanout, Keys: int64(b.Len()),
				Detail: fmt.Sprintf("batch split across %d/%d shards", len(parts), len(t.engines)),
			})
		}
		for j, part := range parts {
			e := t.engines[idxs[j]]
			op := getOp()
			// puts/dels stay zero: batch entries are attributed to the
			// store-level Batches/BatchOps counters above, not to the
			// engines' per-op counts — the split a caller of Stats sees.
			op.ctx, op.batch, op.d = ctx, part, d
			if wasEmpty, ok := e.queue.push(op); ok {
				e.combine(s, wasEmpty)
				inflight = append(inflight, op)
				continue
			}
			putOp(op)
			// The shard retired mid-placement: wait out the swap and
			// re-split this part through the new topology. (This split's
			// later parts fail their own pushes and land here too.)
			select {
			case <-t.changed:
			case <-ctx.Done():
				firstErr = ctx.Err()
			}
			if s.closed.Load() {
				firstErr = ErrClosed
			}
			if firstErr != nil {
				break
			}
			pending = append(pending, part)
		}
	}
	for _, op := range inflight {
		if err := <-op.done; err != nil && firstErr == nil {
			firstErr = err
		}
		putOp(op)
	}
	return firstErr
}

// Sync is the cross-shard durability barrier: it fans out and waits
// until every shard's acked writes are crash-durable — one
// group-committed disk barrier per shard WAL, run in parallel.
func (s *Store) Sync(ctx context.Context) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.syncBarriers.Add(1)
	t, release, err := s.pinTable()
	if err != nil {
		return err
	}
	defer release()
	return fanoutEngines(t.engines, func(_ int, e *engine) error {
		return e.db.Sync(ctx)
	})
}

// --- Reads -------------------------------------------------------------------

// Get routes key to its shard.
func (s *Store) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if s.closed.Load() {
		return nil, false, ErrClosed
	}
	e, err := s.pinKey(key)
	if err != nil {
		return nil, false, err
	}
	defer e.release()
	return e.db.Get(ctx, key)
}

// Scan returns all pairs with low <= key < high in global key order.
// Under range routing only the overlapping shards run, concurrently,
// and their results concatenate (shard ranges are ordered and disjoint);
// under hash routing every shard scans and the results merge by key.
// Each shard's slice is a consistent snapshot of that shard; like the
// live iterator, the cut is per shard, not global — use Snapshot for a
// cross-shard point-in-time read.
func (s *Store) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.scans.Add(1)
	t, release, err := s.pinTable()
	if err != nil {
		return nil, err
	}
	defer release()
	lo, hi := t.shardRange(low, high)
	if lo == hi {
		return t.engines[lo].db.Scan(ctx, low, high)
	}
	parts := make([][]kv.Pair, hi-lo+1)
	if err := fanoutEngines(t.engines[lo:hi+1], func(i int, e *engine) error {
		p, err := e.db.Scan(ctx, low, high)
		parts[i] = p
		return err
	}); err != nil {
		return nil, err
	}
	var out []kv.Pair
	for _, p := range parts {
		out = append(out, p...)
	}
	if t.hashed {
		// Hash-routed shards interleave; restore global key order. The
		// slices are pairwise disjoint, so an ordinary sort suffices.
		sort.Slice(out, func(i, j int) bool { return keys.Compare(out[i].Key, out[j].Key) < 0 })
	}
	return out, nil
}

// NewIterator returns a streaming cursor merging the overlapping
// shards' iterators into one ascending stream, on the caller's
// goroutine. Consistency is per shard; there is no cross-shard cut —
// snapshots provide that. The iterator pins its engines: a concurrent
// split retires a shard without invalidating cursors already over it.
func (s *Store) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.iterators.Add(1)
	t, release, err := s.pinTable()
	if err != nil {
		return nil, err
	}
	lo, hi := t.shardRange(low, high)
	subs := make([]kv.Iterator, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		it, err := t.engines[i].db.NewIterator(ctx, low, high)
		if err != nil {
			for _, open := range subs {
				open.Close()
			}
			release()
			return nil, err
		}
		subs = append(subs, it)
	}
	return kv.Merge(subs, nil, release), nil
}

// Snapshot pins a globally consistent repeatable-read view: a brief
// cross-shard write barrier holds committers between group commits
// while all N per-shard snapshots are taken (concurrently), so the
// handle observes one cut of the whole keyspace — every acked write
// in, nothing mid-commit torn. The view also pins the TOPOLOGY: it
// keeps routing through the epoch it was taken under, holding that
// epoch's engines alive across later splits and merges until released.
func (s *Store) Snapshot(ctx context.Context) (kv.View, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.snapshots.Add(1)

	s.snapMu.Lock()
	t := s.topo.Load()
	// Rewrites swap the table under snapMu too, so under the exclusive
	// barrier the engines are alive and acquire cannot fail.
	for _, e := range t.engines {
		e.acquire()
	}
	views := make([]kv.View, len(t.engines))
	err := fanoutEngines(t.engines, func(i int, e *engine) error {
		v, err := e.db.Snapshot(ctx)
		if err == nil {
			views[i] = v
		}
		return err
	})
	s.snapMu.Unlock()
	if err != nil {
		for _, v := range views {
			if v != nil {
				v.Close()
			}
		}
		for _, e := range t.engines {
			e.release()
		}
		return nil, err
	}
	return &snapView{s: s, t: t, views: views}, nil
}

// Checkpoint writes an openable copy of the whole sharded store into
// dir: one per-shard checkpoint per engine directory (fanned out
// concurrently, each hard-links + WAL tail) plus the SHARDS manifest,
// written last as the commit point. The store stays online — there is
// no cross-shard barrier, so each shard's copy is prefix-consistent in
// its OWN commit order; a write racing the call may appear on one shard
// and not another. The copy is of one pinned epoch.
func (s *Store) Checkpoint(ctx context.Context, dir string) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.checkpoints.Add(1)
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		return fmt.Errorf("shard: checkpoint dir %s is not empty", dir)
	} else if err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t, release, err := s.pinTable()
	if err != nil {
		return err
	}
	defer release()
	if err := fanoutEngines(t.engines, func(_ int, e *engine) error {
		return e.db.Checkpoint(ctx, filepath.Join(dir, e.dir))
	}); err != nil {
		return err
	}
	return writeLayout(dir, t.layout())
}

// --- Lifecycle ---------------------------------------------------------------

// Close stops the rebalance controller, drains and retires every commit
// pipeline, and closes every shard. Writes still queued but not yet
// picked up complete with ErrClosed. Close must not race with other
// operations.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.shutdown()
}

// CrashForTesting abandons every shard the way a crash would: staged
// WAL tails are lost, no close-time flush runs, queued-but-uncommitted
// writes vanish un-acked. Durability tests use it to open the per-shard
// acked-but-lost windows deliberately.
func (s *Store) CrashForTesting() {
	if s.closed.Swap(true) {
		return
	}
	s.crashed.Store(true)
	s.shutdown()
}

// shutdown is the common teardown: the caller has already latched
// closed (and crashed, for the crash path).
func (s *Store) shutdown() error {
	if s.quit != nil {
		close(s.quit)
	}
	// Wait out any in-flight rewrite; after this the topology is final.
	s.rebalMu.Lock()
	defer s.rebalMu.Unlock()
	t := s.topo.Load()
	for _, e := range t.engines {
		rem := e.queue.close()
		e.ringDoorbell()
		for op := rem; op != nil; {
			next := op.next
			e.queue.depth.Add(-1)
			op.done <- ErrClosed
			op = next
		}
	}
	for _, e := range t.engines {
		<-e.drained
	}
	// Wake producers parked on a topology change; they observe closed.
	close(t.changed)
	s.wg.Wait()
	var firstErr error
	for _, e := range t.engines {
		if err := e.release(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- Diagnostics -------------------------------------------------------------

// Stats aggregates the shards. Physical counters (memory-component
// traffic, flushes, compactions, and the WAL acked/durable boundary) sum
// across shards — AckedSeq and DurableSeq are sums of per-shard commit
// indices, so DurableSeq == AckedSeq still means "no buffered window
// anywhere". Logical counters for fanned-out operations (Scans,
// Iterators, Snapshots, Checkpoints, Batches, SyncBarriers) count calls
// on THIS store, not the N per-shard calls each one fans into. Topology
// fields: ShardEpoch is the live epoch, ShardSplits/ShardMerges count
// rewrites over the store's lifetime in memory, ShardQueueDepth sums the
// pipelines' backlogs, and ShardHotness is the hottest shard's share of
// the last sensor window.
func (s *Store) Stats() kv.Stats {
	agg := kv.Stats{
		Scans:        s.scans.Load(),
		Iterators:    s.iterators.Load(),
		Snapshots:    s.snapshots.Load(),
		Checkpoints:  s.checkpoints.Load(),
		Batches:      s.batches.Load(),
		BatchOps:     s.batchOps.Load(),
		SyncBarriers: s.syncBarriers.Load(),
		ShardSplits:  s.splits.Load(),
		ShardMerges:  s.merges.Load(),
	}
	per := s.PerShard()
	for _, st := range per {
		agg.Puts += st.Puts
		agg.Gets += st.Gets
		agg.Deletes += st.Deletes
		agg.MembufferHits += st.MembufferHits
		agg.MemtableWrites += st.MemtableWrites
		agg.Flushes += st.Flushes
		agg.Compactions += st.Compactions
		agg.AckedSeq += st.AckedSeq
		agg.DurableSeq += st.DurableSeq
		agg.WALSyncs += st.WALSyncs
		agg.WALSyncRequests += st.WALSyncRequests
		agg.BlockCacheHits += st.BlockCacheHits
		agg.BlockCacheMisses += st.BlockCacheMisses
		agg.BlockCacheEvictions += st.BlockCacheEvictions
		agg.BlockCacheBytes += st.BlockCacheBytes
		agg.TableCacheHits += st.TableCacheHits
		agg.TableCacheMisses += st.TableCacheMisses
		agg.BloomChecks += st.BloomChecks
		agg.BloomMisses += st.BloomMisses
		// Adaptive sizing: resize epochs and sensor rates sum; the
		// fraction averages (each shard holds an equal slice of the
		// budget, so the mean is the budget-weighted live share).
		agg.MembufferResizes += st.MembufferResizes
		agg.SensorPutRate += st.SensorPutRate
		agg.SensorGetRate += st.SensorGetRate
		agg.SensorScanRate += st.SensorScanRate
		agg.SensorStallPct += st.SensorStallPct
		agg.MembufferFraction += st.MembufferFraction
		// Topology overlays: depth sums, hotness takes the peak.
		agg.ShardQueueDepth += st.ShardQueueDepth
		if st.ShardHotness > agg.ShardHotness {
			agg.ShardHotness = st.ShardHotness
		}
		agg.ShardEpoch = st.ShardEpoch
	}
	if len(per) > 0 {
		agg.MembufferFraction /= float64(len(per))
	}
	return agg
}

// PerShard returns each shard's own counters, indexed by shard — the
// breakdown behind Stats, and the imbalance signal under skew: a hot
// shard shows up as one row carrying most of the Puts and Flushes, a
// ShardHotness near 1, and a deep ShardQueueDepth.
func (s *Store) PerShard() []kv.Stats {
	t, release, err := s.pinTable()
	if err != nil {
		return nil
	}
	defer release()
	out := make([]kv.Stats, len(t.engines))
	for i, e := range t.engines {
		out[i] = e.db.Stats()
		out[i].ShardEpoch = t.epoch
		out[i].ShardQueueDepth = uint64(max(e.queue.depth.Load(), 0))
		out[i].ShardHotness = e.loadHotShare()
	}
	return out
}

// WaitDiskQuiesce waits out pending persists and compactions on every
// shard (the harness quiesce point). Acked writes are already
// committed, so quiescing the engines quiesces the store.
func (s *Store) WaitDiskQuiesce() {
	t, release, err := s.pinTable()
	if err != nil {
		return
	}
	defer release()
	for _, e := range t.engines {
		e.db.WaitDiskQuiesce()
	}
}

var (
	_ kv.Store         = (*Store)(nil)
	_ kv.StatsProvider = (*Store)(nil)
)
