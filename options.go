package flodb

import (
	"fmt"

	"flodb/internal/kv"
)

// An Option tunes a store at Open. Options are applied in order, so later
// options override earlier ones. The zero configuration (no options) gives
// the defaults the paper's evaluation uses, scaled for a development
// machine: 64 MiB of memory split 1/4 Membuffer : 3/4 Memtable, two drain
// threads, WAL on with Buffered durability (logged, no per-write fsync).
//
// Out-of-range values are rejected by Open with a descriptive error —
// never silently clamped.
type Option interface {
	apply(*options)
}

// options accumulates the applied Option values for Open.
type options struct {
	memoryBytes       int64
	membufferFraction float64
	partitionBits     uint
	drainThreads      int
	disableWAL        bool
	walWriteThrough   bool
	durability        Durability
	policy            ShardPolicy
	policySet         bool
	disableTelemetry  bool

	blockCacheBytes int64
	tableCacheCap   int

	// err records the first invalid option; Open surfaces it.
	err error
}

func (o *options) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

// optionFunc adapts a closure to Option.
type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithMemory sets the total memory-component budget in bytes, split
// 1/4 Membuffer : 3/4 Memtable as in the paper (§5.1). Default 64 MiB.
// Non-positive budgets are rejected by Open, and so is more than 512 MiB
// per engine (a Memtable's skiplist arena is addressed by 32-bit offsets).
func WithMemory(bytes int64) Option {
	return optionFunc(func(o *options) {
		if bytes <= 0 {
			o.fail(fmt.Errorf("flodb: WithMemory(%d): budget must be positive", bytes))
			return
		}
		o.memoryBytes = bytes
	})
}

// WithMembufferFraction overrides the Membuffer's share of the memory
// budget. Default 0.25, the paper's empirically chosen split. The split is
// fixed at Open for the store's lifetime. Fractions outside (0,1) are
// rejected by Open.
func WithMembufferFraction(f float64) Option {
	return optionFunc(func(o *options) {
		if f <= 0 || f >= 1 {
			o.fail(fmt.Errorf("flodb: WithMembufferFraction(%v): fraction must be in (0,1)", f))
			return
		}
		o.membufferFraction = f
	})
}

// WithPartitionBits sets ℓ: the Membuffer has 2^ℓ partitions selected by
// the most significant key bits (§4.3). Default 6; values above 16 are
// rejected by Open.
func WithPartitionBits(bits uint) Option {
	return optionFunc(func(o *options) {
		if bits > 16 {
			o.fail(fmt.Errorf("flodb: WithPartitionBits(%d): at most 16 bits supported", bits))
			return
		}
		o.partitionBits = bits
	})
}

// WithDrainThreads sets the number of background draining threads (§4.2).
// Default 2. Non-positive counts are rejected by Open.
func WithDrainThreads(n int) Option {
	return optionFunc(func(o *options) {
		if n <= 0 {
			o.fail(fmt.Errorf("flodb: WithDrainThreads(%d): count must be positive", n))
			return
		}
		o.drainThreads = n
	})
}

// A ShardPolicy describes how a store is partitioned across independent
// FloDB engines: how many shards it starts with, how keys route to them,
// and whether the layout may change at runtime. Construct one with
// Static, HashSharded or Adaptive and pass it to WithShardPolicy.
type ShardPolicy struct {
	shards    int
	hashed    bool
	dynamic   bool
	minShards int
	maxShards int
	err       error
}

// Static partitions the keyspace into n fixed, uniform ranges — one
// engine each, with its own directory (dir/shard-NNN), WAL, memory
// component and compactor, behind the same DB surface. The count and
// boundaries are recorded in the SHARDS manifest at creation and never
// change; reopening with a different Static count is an error, while
// reopening with no shard option adopts whatever the manifest records.
// Static(1) is the default unsharded store.
func Static(n int) ShardPolicy {
	p := ShardPolicy{shards: n}
	if n < 1 {
		p.err = fmt.Errorf("flodb: Static(%d): shard count must be >= 1", n)
	}
	return p
}

// HashSharded routes each key to one of n shards by hash instead of by
// range. Point operations spread evenly whatever the key distribution,
// at a price: every shard spans the whole keyspace, so range scans and
// iterators touch all n shards and re-sort, and the layout can never be
// split or merged — Adaptive over a hash-sharded store fails with
// ErrDynamicHashRouting.
func HashSharded(n int) ShardPolicy {
	p := ShardPolicy{shards: n, hashed: true}
	if n < 1 {
		p.err = fmt.Errorf("flodb: HashSharded(%d): shard count must be >= 1", n)
	}
	return p
}

// Adaptive starts the store at min range-partitioned shards and lets a
// per-shard workload sensor drive the layout at runtime: a shard drawing
// an outsized share of the traffic is split at its observed median key
// (up to max shards), and adjacent cold shards merge back (down to min).
// Every change bumps the topology epoch (DB.ShardTopology), commits
// crash-safely through the SHARDS manifest, and leaves open snapshots
// and iterators reading their pinned epoch. Reopening an Adaptive store
// adopts however many shards the last run left behind.
func Adaptive(min, max int) ShardPolicy {
	p := ShardPolicy{dynamic: true, minShards: min, maxShards: max}
	if min < 1 || max < min {
		p.err = fmt.Errorf("flodb: Adaptive(%d, %d): want 1 <= min <= max", min, max)
	}
	return p
}

// WithShardPolicy sets how the store is partitioned: Static(n) for a
// fixed uniform range split, HashSharded(n) for hash routing, or
// Adaptive(min, max) for sensor-driven dynamic splitting and merging.
// The memory budget (WithMemory) and block cache (WithBlockCacheSize)
// are TOTALS, split evenly across however many shards are live.
//
// See the README's sharding section for the cross-shard semantics
// (per-shard batch atomicity, the snapshot write barrier, checkpoint
// layout, topology epochs).
func WithShardPolicy(p ShardPolicy) Option {
	return optionFunc(func(o *options) {
		if p.err != nil {
			o.fail(p.err)
			return
		}
		o.policy = p
		o.policySet = true
	})
}

// WithShards is shorthand for WithShardPolicy(Static(n)): a fixed
// uniform range split across n engines. WithShards(1) is the default
// unsharded store.
func WithShards(n int) Option {
	return optionFunc(func(o *options) {
		if n < 1 {
			o.fail(fmt.Errorf("flodb: WithShards(%d): count must be >= 1", n))
			return
		}
		o.policy = Static(n)
		o.policySet = true
	})
}

// WithBlockCacheSize sets the budget, in bytes, of the read cache below
// the memory component (default 32 MiB). Point reads fill the cache with
// the rows they found; iterators and compaction neither fill nor consult
// it; the option name is historical (the cache held sstable blocks). A
// repeat Get of a warm key skips the table handle, the index search, the
// I/O and the checksum. On a sharded store the budget is the TOTAL, split
// evenly across shards like WithMemory. Non-positive sizes are rejected
// by Open; to measure the uncached read path, use a 1-byte cache (nothing
// fits, every read misses).
func WithBlockCacheSize(bytes int64) Option {
	return optionFunc(func(o *options) {
		if bytes <= 0 {
			o.fail(fmt.Errorf("flodb: WithBlockCacheSize(%d): size must be positive", bytes))
			return
		}
		o.blockCacheBytes = bytes
	})
}

// WithTableCacheCapacity bounds how many sstable readers (one open file
// descriptor plus a parsed index and bloom filter each) the store keeps
// resident, per shard (default 256). CLOCK eviction closes cold readers;
// readers in use by iterators or compactions are pinned and never closed
// underneath their users. Raise it when the tree holds more tables than
// the default and re-opens show up in TableCacheMisses; lower it under
// tight fd limits. Non-positive capacities are rejected by Open.
func WithTableCacheCapacity(n int) Option {
	return optionFunc(func(o *options) {
		if n <= 0 {
			o.fail(fmt.Errorf("flodb: WithTableCacheCapacity(%d): capacity must be positive", n))
			return
		}
		o.tableCacheCap = n
	})
}

// WithTelemetry turns the optional half of the observability layer on
// (the default) or off. Enabled, every operation records into per-op
// latency histograms and lifecycle moments (flushes, compactions,
// generation seals, WAL rotations and stalls, snapshot pins) land in a
// bounded structured event log — the data behind DB.TelemetrySnapshot,
// DB.TelemetryEvents and flodbd's /debug endpoints. Disabled, the histograms and the event log disappear and
// with them every time.Now() on the hot paths; the plain Stats
// counters stay on either way. The obsbench figure measures the
// enabled-vs-disabled delta (≤ a few percent on uniform writes).
func WithTelemetry(enabled bool) Option {
	return optionFunc(func(o *options) { o.disableTelemetry = !enabled })
}

// WithWALWriteThrough makes the commit log hand every record to the OS
// as it is appended instead of staging it in a user-space buffer. Acked
// Buffered writes then survive a process kill (SIGKILL, panic); only a
// machine crash can still lose the un-fsynced window. Replica nodes in
// cluster mode run with this on — it is what makes a quorum ack mean
// "survives kill -9 of a replica" — at the cost of a write() syscall
// per append on the buffered path.
func WithWALWriteThrough() Option {
	return optionFunc(func(o *options) { o.walWriteThrough = true })
}

// WithoutWAL turns off commit logging: every write is DurabilityNone
// (fastest, no crash durability for the memory component), and requesting
// a logged durability class per operation fails with ErrNotSupported.
// Checkpoints of a WAL-less store capture only the flushed state.
func WithoutWAL() Option {
	return optionFunc(func(o *options) { o.disableWAL = true })
}

// DurabilityOption is both an Option (the store's default durability at
// Open) and a WriteOption (a per-operation override), so one constructor
// serves both sites:
//
//	db, _ := flodb.Open(dir, flodb.WithDurability(flodb.DurabilitySync))
//	db.Put(ctx, k, v, flodb.WithDurability(flodb.DurabilityNone))
type DurabilityOption struct{ d Durability }

func (o DurabilityOption) apply(opts *options) {
	if !o.d.Valid() {
		opts.fail(fmt.Errorf("flodb: WithDurability(%v): unknown class", o.d))
		return
	}
	opts.durability = o.d
}

// ApplyWrite implements kv.WriteOption for per-operation use.
func (o DurabilityOption) ApplyWrite(w *kv.WriteOptions) {
	if o.d != DurabilityDefault {
		w.Durability = o.d
	}
}

// WithDurability sets the durability class — the store-wide default when
// passed to Open (replacing the removed all-or-nothing WithSyncWAL), or a
// single operation's class when passed to Put, Delete or Apply. See
// Durability for the classes and their crash guarantees.
func WithDurability(d Durability) DurabilityOption { return DurabilityOption{d: d} }

// WithSync is shorthand for WithDurability(DurabilitySync): at Open it
// makes every write group-commit an fsync before acknowledging; on a
// single Put, Delete or Apply it makes just that operation Sync-durable.
func WithSync() DurabilityOption { return DurabilityOption{d: DurabilitySync} }
