package core

import (
	"fmt"

	"flodb/internal/diskenv"
	"flodb/internal/kv"
	"flodb/internal/membuffer"
	"flodb/internal/skiplist"
	"flodb/internal/storage"
)

// Config parameterizes a FloDB instance. The defaults mirror the paper's
// experimental setup scaled to a development machine: the memory budget is
// split 1/4 Membuffer : 3/4 Memtable (§5.1), and entryBytes sizes the
// hash table.
type Config struct {
	// Dir is the database directory.
	Dir string

	// MemoryBytes is the total memory-component budget (Membuffer +
	// Memtable). Default 64 MiB, at most MaxMemoryBytes.
	MemoryBytes int64
	// MembufferFraction is the share of MemoryBytes given to the
	// Membuffer. Default 0.25 (the paper's empirically chosen 1:4 split).
	// The split is fixed at Open for the store's lifetime.
	MembufferFraction float64

	// PartitionBits is ℓ, the number of most-significant key bits that
	// select a Membuffer partition (§4.3). Default 6 (64 partitions).
	PartitionBits uint

	// DrainThreads is the number of background draining threads (§4.2).
	// Default 2.
	DrainThreads int
	// DisableMembuffer removes the top level entirely — the "No HT"
	// ablation of Fig 17 (a classic single-level LSM memory component).
	// The Memtable then gets all of MemoryBytes.
	DisableMembuffer bool

	// DisableWAL skips commit logging entirely (the paper's benchmarks,
	// like LevelDB's defaults, run without a per-write log). Without a
	// log every write is DurabilityNone; requesting a logged class per
	// operation fails with kv.ErrNotSupported.
	DisableWAL bool
	// WALWriteThrough pushes every WAL append to the OS before it is
	// acknowledged (no extra fsyncs): an acked Buffered write survives
	// kill -9 of the process, not a machine crash.
	WALWriteThrough bool
	// Durability is the default durability class for writes that don't
	// override it per operation. DurabilityDefault resolves to Buffered
	// (log without fsync) — or None when the WAL is disabled. Sync makes
	// every write group-commit an fsync before acknowledging.
	Durability kv.Durability

	// DropPersist discards immutable Memtables instead of flushing them —
	// the memory-component-only mode of Fig 17. Implies no recovery of
	// dropped data; WAL is forced off.
	DropPersist bool
	// FlushFault injects errors into the persist path (tests).
	FlushFault *diskenv.FaultPoint

	// Storage configures the disk component. An unset BaseLevelBytes is
	// sized to hold one L0 compaction of Memtables at their persist
	// target (storage.Options.SizeBaseLevel).
	Storage storage.Options
}

// MaxMemoryBytes caps Config.MemoryBytes. A Memtable's nodes live in one
// skiplist arena of at most skiplist.MaxArenaBytes of offsets; the arena
// holds no more nodes than the Memtable charges for (values live outside
// it), chunk tails can leave up to half of each chunk unused, backpressure
// lets a Memtable reach twice its target — at most MemoryBytes — and the
// drains of the seals that end a generation can push it past that by up to
// a Membuffer. An eighth of the arena covers all four.
const MaxMemoryBytes = skiplist.MaxArenaBytes / 8

// fillDefaults validates the configuration and resolves zero values to
// the paper's defaults. Out-of-range values are REJECTED with a
// descriptive error, never silently clamped: a store that opens with a
// different geometry than the caller asked for is a misconfiguration
// nobody notices until the performance (or durability) is wrong.
func (c *Config) fillDefaults() error {
	if c.Dir == "" && !c.DropPersist {
		return fmt.Errorf("core: Config.Dir is required")
	}
	if c.MemoryBytes < 0 {
		return fmt.Errorf("core: MemoryBytes %d is negative; want > 0 (or 0 for the 64 MiB default)", c.MemoryBytes)
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = 64 << 20
	}
	if c.MemoryBytes > MaxMemoryBytes {
		return fmt.Errorf("core: MemoryBytes %d exceeds %d, the most one Memtable's skiplist arena can hold at twice its target", c.MemoryBytes, int64(MaxMemoryBytes))
	}
	if c.MembufferFraction < 0 || c.MembufferFraction >= 1 {
		return fmt.Errorf("core: MembufferFraction %v outside (0,1); want the Membuffer's share of MemoryBytes (or 0 for the default 0.25)", c.MembufferFraction)
	}
	if c.MembufferFraction == 0 {
		c.MembufferFraction = 0.25
	}
	if c.PartitionBits > 16 {
		return fmt.Errorf("core: PartitionBits %d exceeds 16 (2^16 partitions is the supported maximum)", c.PartitionBits)
	}
	if c.PartitionBits == 0 {
		c.PartitionBits = 6
	}
	if c.DrainThreads < 0 {
		return fmt.Errorf("core: DrainThreads %d is negative; want > 0 (or 0 for the default 2)", c.DrainThreads)
	}
	if c.DrainThreads == 0 {
		c.DrainThreads = 2
	}
	c.Storage.SizeBaseLevel(c.memtableTargetBytes())
	if c.DropPersist {
		c.DisableWAL = true
	}
	return nil
}

// membufferBytes returns the Membuffer's share of the budget: none when
// the Membuffer is disabled.
func (c *Config) membufferBytes() int64 {
	if c.DisableMembuffer {
		return 0
	}
	return int64(float64(c.MemoryBytes) * c.MembufferFraction)
}

// memtableTargetBytes returns the Memtable size that triggers persisting:
// the part of the budget the Membuffer does not hold.
func (c *Config) memtableTargetBytes() int64 {
	return c.MemoryBytes - c.membufferBytes()
}

// entryBytes is the key+value size the Membuffer's buckets are sized for:
// the paper's 8 B keys and 256 B values.
const entryBytes = 8 + 256

// membufferConfig returns the geometry every Membuffer of the store has.
func (c *Config) membufferConfig() membuffer.Config {
	return membuffer.ConfigForBytes(c.membufferBytes(), entryBytes, c.PartitionBits)
}
