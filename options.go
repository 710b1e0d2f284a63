package flodb

import (
	"fmt"

	"flodb/internal/kv"
)

// An Option tunes a store at Open. Options are applied in order, so later
// options override earlier ones. The zero configuration (no options) gives
// the defaults the paper's evaluation uses, scaled for a development
// machine: 64 MiB of memory split 1/4 Membuffer : 3/4 Memtable, two drain
// threads, Buffered durability (every write logged, no per-write fsync).
//
// Out-of-range values are rejected by Open with a descriptive error —
// never silently clamped.
type Option interface {
	apply(*options)
}

// options accumulates the applied Option values for Open.
type options struct {
	memoryBytes     int64
	drainThreads    int
	walWriteThrough bool
	durability      Durability

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
// (a Memtable's skiplist arena is addressed by 32-bit offsets).
func WithMemory(bytes int64) Option {
	return optionFunc(func(o *options) {
		if bytes <= 0 {
			o.fail(fmt.Errorf("flodb: WithMemory(%d): budget must be positive", bytes))
			return
		}
		o.memoryBytes = bytes
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

// WithBlockCacheSize sets the budget, in bytes, of the read cache below
// the memory component (default 32 MiB). Point reads fill the cache with
// the rows they found; iterators and compaction neither fill nor consult
// it; the option name is historical (the cache held sstable blocks). A
// repeat Get of a warm key skips the table handle, the index search, the
// I/O and the checksum. Non-positive sizes are rejected by Open; to
// measure the uncached read path, use a 1-byte cache (nothing fits, every
// read misses).
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
// resident (default 256). CLOCK eviction closes cold readers;
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

// WithWALWriteThrough makes the commit log hand every record to the OS
// as it is appended instead of staging it in a user-space buffer. An
// acked Buffered write then survives kill -9 of the process (SIGKILL,
// panic), but not a machine crash, which can still lose the un-fsynced
// window — that takes DurabilitySync or a Sync barrier. The cost is a
// write() syscall per append on the buffered path.
func WithWALWriteThrough() Option {
	return optionFunc(func(o *options) { o.walWriteThrough = true })
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
