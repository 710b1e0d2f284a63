package core

import (
	"fmt"
	"time"

	"flodb/internal/diskenv"
	"flodb/internal/kv"
	"flodb/internal/membuffer"
	"flodb/internal/skiplist"
	"flodb/internal/storage"
)

// Config parameterizes a FloDB instance. The defaults mirror the paper's
// experimental setup scaled to a development machine: the memory budget is
// split 1/4 Membuffer : 3/4 Memtable (§5.1), keys of ~8 B and values of
// ~256 B size the hash table.
type Config struct {
	// Dir is the database directory.
	Dir string

	// MemoryBytes is the total memory-component budget (Membuffer +
	// Memtable). Default 64 MiB, at most MaxMemoryBytes.
	MemoryBytes int64
	// MembufferFraction is the share of MemoryBytes given to the
	// Membuffer. Default 0.25 (the paper's empirically chosen 1:4 split).
	// With AdaptiveMemory it is the STARTING fraction; the controller
	// moves the live split from there.
	MembufferFraction float64

	// AdaptiveMemory enables workload-adaptive resizing of the
	// Membuffer↔Memtable split (§4.4): a windowed sensor measures the
	// put/get/scan mix and drain-stall time, and a controller shifts the
	// byte budget between the two levels inside MemoryBytes —
	// update-heavy phases grow the Membuffer (more O(1) absorption),
	// scan/read-heavy phases shrink it (cheaper range-read seals, the
	// skiplist stays authoritative). A resize is one generation switch
	// through the existing immutable-Membuffer drain path: seal at the
	// old capacity, open at the new one — never a stop-the-world rehash.
	AdaptiveMemory bool
	// AdaptiveMinFraction / AdaptiveMaxFraction bound the controller.
	// Defaults 0.05 and 0.60. The starting MembufferFraction must lie
	// inside [min, max].
	AdaptiveMinFraction float64
	AdaptiveMaxFraction float64
	// AdaptiveWindow is the sensor window: the controller re-evaluates
	// the split once per window. Default 100ms.
	AdaptiveWindow time.Duration
	// PartitionBits is ℓ, the number of most-significant key bits that
	// select a Membuffer partition (§4.3). Default 6 (64 partitions).
	PartitionBits uint
	// EntryBytesHint approximates key+value size for bucket sizing.
	// Default 264 (the paper's 8 B keys + 256 B values).
	EntryBytesHint int

	// DrainThreads is the number of background draining threads (§4.2).
	// Default 2.
	DrainThreads int
	// DrainBatch is the number of entries claimed per partition visit and
	// inserted with one multi-insert. Default 64.
	DrainBatch int
	// SimpleInsertDrain makes drains use one skiplist insert per entry
	// instead of multi-insert — the "HT, simple insert SL" ablation of
	// Fig 17.
	SimpleInsertDrain bool
	// DisableMembuffer removes the top level entirely — the "No HT"
	// ablation of Fig 17 (a classic single-level LSM memory component).
	DisableMembuffer bool

	// DisableWAL skips commit logging entirely (the paper's benchmarks,
	// like LevelDB's defaults, run without a per-write log). Without a
	// log every write is DurabilityNone; requesting a logged class per
	// operation fails with kv.ErrNotSupported.
	DisableWAL bool
	// WALWriteThrough pushes every WAL append to the OS before it is
	// acknowledged (no extra fsyncs — the buffered window shrinks from
	// "process or machine crash" to "machine crash only"). Replica nodes
	// in a cluster run with it on so a kill -9 of one process never loses
	// a quorum-acked write.
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
	// PersistLimiter, when non-nil, rate-limits flush bytes to model a
	// slower disk (Fig 9's persistence-throughput line).
	PersistLimiter *diskenv.Limiter
	// FlushFault injects errors into the persist path (tests).
	FlushFault *diskenv.FaultPoint

	// DisableTelemetry turns off the optional half of the observability
	// layer: per-op latency histograms and the structured event log
	// (every time.Now() on the hot paths). The stat counters stay on —
	// they are single atomic adds and kv.Stats depends on them. The
	// obsbench figure measures the delta this flag removes.
	DisableTelemetry bool

	// Storage configures the disk component. An unset BaseLevelBytes is
	// sized to hold one L0 compaction of Memtables at the starting split
	// (storage.Options.SizeBaseLevel).
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
	fracDefaulted := c.MembufferFraction == 0
	if fracDefaulted {
		c.MembufferFraction = 0.25
	}
	if c.AdaptiveMinFraction < 0 || c.AdaptiveMinFraction >= 1 {
		return fmt.Errorf("core: AdaptiveMinFraction %v outside (0,1); want the smallest Membuffer share the controller may choose (or 0 for the default 0.05)", c.AdaptiveMinFraction)
	}
	if c.AdaptiveMaxFraction < 0 || c.AdaptiveMaxFraction >= 1 {
		return fmt.Errorf("core: AdaptiveMaxFraction %v outside (0,1); want the largest Membuffer share the controller may choose (or 0 for the default 0.60)", c.AdaptiveMaxFraction)
	}
	if c.AdaptiveWindow < 0 {
		return fmt.Errorf("core: AdaptiveWindow %v is negative; want the sensor window (or 0 for the default 100ms)", c.AdaptiveWindow)
	}
	if c.AdaptiveMemory {
		if c.DisableMembuffer {
			return fmt.Errorf("core: AdaptiveMemory resizes the Membuffer, but DisableMembuffer removes it")
		}
		if c.AdaptiveMinFraction == 0 {
			c.AdaptiveMinFraction = 0.05
		}
		if c.AdaptiveMaxFraction == 0 {
			c.AdaptiveMaxFraction = 0.60
		}
		if c.AdaptiveMinFraction >= c.AdaptiveMaxFraction {
			return fmt.Errorf("core: AdaptiveMinFraction %v >= AdaptiveMaxFraction %v; want min < max", c.AdaptiveMinFraction, c.AdaptiveMaxFraction)
		}
		if c.MembufferFraction < c.AdaptiveMinFraction || c.MembufferFraction > c.AdaptiveMaxFraction {
			// The DEFAULT starting fraction follows the caller's range
			// (clamped in); only an explicitly chosen fraction that
			// contradicts an explicitly chosen range is a
			// misconfiguration worth rejecting.
			if !fracDefaulted {
				return fmt.Errorf("core: starting MembufferFraction %v outside the adaptive range [%v, %v]", c.MembufferFraction, c.AdaptiveMinFraction, c.AdaptiveMaxFraction)
			}
			if c.MembufferFraction < c.AdaptiveMinFraction {
				c.MembufferFraction = c.AdaptiveMinFraction
			} else {
				c.MembufferFraction = c.AdaptiveMaxFraction
			}
		}
		if c.AdaptiveWindow == 0 {
			c.AdaptiveWindow = 100 * time.Millisecond
		}
	}
	if c.PartitionBits > 16 {
		return fmt.Errorf("core: PartitionBits %d exceeds 16 (2^16 partitions is the supported maximum)", c.PartitionBits)
	}
	if c.PartitionBits == 0 {
		c.PartitionBits = 6
	}
	if c.EntryBytesHint < 0 {
		return fmt.Errorf("core: EntryBytesHint %d is negative; want an approximate key+value size (or 0 for the default 264)", c.EntryBytesHint)
	}
	if c.EntryBytesHint == 0 {
		c.EntryBytesHint = 264
	}
	if c.DrainThreads < 0 {
		return fmt.Errorf("core: DrainThreads %d is negative; want > 0 (or 0 for the default 2)", c.DrainThreads)
	}
	if c.DrainThreads == 0 {
		c.DrainThreads = 2
	}
	if c.DrainBatch < 0 {
		return fmt.Errorf("core: DrainBatch %d is negative; want > 0 (or 0 for the default 64)", c.DrainBatch)
	}
	if c.DrainBatch == 0 {
		c.DrainBatch = 64
	}
	c.Storage.SizeBaseLevel(c.memtableTargetBytesAt(c.MembufferFraction))
	if c.DropPersist {
		c.DisableWAL = true
	}
	if !c.Durability.Valid() {
		return fmt.Errorf("core: invalid Durability %v", c.Durability)
	}
	if c.DisableWAL {
		if c.Durability == kv.DurabilityBuffered || c.Durability == kv.DurabilitySync {
			return fmt.Errorf("core: default Durability %v requires the WAL, but the WAL is disabled: %w", c.Durability, kv.ErrNotSupported)
		}
		c.Durability = kv.DurabilityNone
	} else if c.Durability == kv.DurabilityDefault {
		c.Durability = kv.DurabilityBuffered
	}
	return nil
}

// membufferBytesAt returns the Membuffer budget at the given fraction.
// The fraction is a parameter, not a field read, because the adaptive
// controller moves the live split at runtime (DB.membufferFraction).
func (c *Config) membufferBytesAt(frac float64) int64 {
	return int64(float64(c.MemoryBytes) * frac)
}

// memtableTargetBytesAt returns the Memtable size that triggers
// persisting when the Membuffer holds the given fraction.
func (c *Config) memtableTargetBytesAt(frac float64) int64 {
	return c.MemoryBytes - c.membufferBytesAt(frac)
}

// newMembufferAt builds a Membuffer sized at the given fraction.
func (c *Config) newMembufferAt(frac float64) *membuffer.Buffer {
	return membuffer.New(membuffer.ConfigForBytes(c.membufferBytesAt(frac), c.EntryBytesHint, c.PartitionBits))
}
