// Package workload generates the key streams and operation mixes of the
// paper's evaluation (§5.1–§5.2):
//
//   - 8-byte keys, 256-byte values;
//   - keys drawn uniformly at random unless stated otherwise;
//   - the skewed experiments access 2% of the dataset with 98% of
//     operations (§5.4);
//   - mixes: write-only (50% insert / 50% delete), read-only, balanced
//     (50r/25i/25d), one-writer-many-readers, and scan-write (95% update /
//     5% scan of 100 keys).
//
// Generators are deterministic per (seed, thread) so runs are repeatable,
// and allocation-free on the hot path.
package workload

import (
	"math/rand"
)

// DefaultKeySize and DefaultValueSize are the paper's record shape.
const (
	DefaultKeySize   = 8
	DefaultValueSize = 256
)

// Op is one operation kind in a mix.
type Op int

const (
	// OpGet is a point read.
	OpGet Op = iota
	// OpInsert writes a (possibly new) key.
	OpInsert
	// OpDelete removes a key.
	OpDelete
	// OpScan reads a bounded range.
	OpScan
	// OpBatch applies an atomic write batch of 32 mutations (the harness's
	// batch size) through Store.Apply.
	OpBatch
	// OpSnapshot takes a Store.Snapshot, performs 16 point reads through
	// it (the harness's snapshot session), and releases it — the
	// multi-request repeatable-read shape of a session pinned to one view.
	OpSnapshot
	// OpSync calls Store.Sync — the durability barrier promoting every
	// previously-acked buffered write to durable in one group-committed
	// disk barrier.
	OpSync
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpBatch:
		return "batch"
	case OpSnapshot:
		return "snapshot"
	case OpSync:
		return "sync"
	default:
		return "op?"
	}
}

// Mix is a discrete distribution over operations, in percent.
type Mix struct {
	GetPct    int
	InsertPct int
	DeletePct int
	ScanPct   int
	BatchPct  int
	SnapPct   int
	SyncPct   int
}

// The paper's workload mixes.
var (
	// WriteOnly is §5.2's write-only workload: 50% inserts, 50% deletes.
	WriteOnly = Mix{InsertPct: 50, DeletePct: 50}
	// ReadOnly is §5.2's read-only workload.
	ReadOnly = Mix{GetPct: 100}
	// Balanced is the mixed workload: 50% reads, 25% inserts, 25% deletes.
	Balanced = Mix{GetPct: 50, InsertPct: 25, DeletePct: 25}
	// ScanWrite is the 95% update / 5% scan mix of Fig 13.
	ScanWrite = Mix{InsertPct: 95, ScanPct: 5}
	// ReadUpdate is the 50/50 mix of the skew experiment (Fig 16).
	ReadUpdate = Mix{GetPct: 50, InsertPct: 50}
	// BatchWrite is a write-only workload where every operation is an
	// atomic write batch (loader/ingest shape: RocksDB's WriteBatch path).
	BatchWrite = Mix{BatchPct: 100}
	// BatchRead mixes batched ingest with point reads, the
	// read-while-bulk-loading shape.
	BatchRead = Mix{GetPct: 50, BatchPct: 50}
	// SnapshotRead models sessions that pin a repeatable-read view amid a
	// write-heavy stream: 2% of operations take a snapshot and read
	// through it, the rest are live reads and inserts. Snapshots are
	// O(1) everywhere now (FloDB seals and pins a seq bound instead of
	// flushing), so the mix measures read-view traffic — the apibench
	// snap-read column is the regression fence for that property.
	SnapshotRead = Mix{GetPct: 48, InsertPct: 50, SnapPct: 2}
	// DurableWrite models a commit-heavy ingest where every mutation must
	// be crash-durable before it is acknowledged: a write-only stream with
	// RunOptions.SyncWrites making each insert a Sync-class commit. With
	// group commit the concurrent committers coalesce onto shared fsyncs;
	// without it this mix flattens every store to disk-barrier speed.
	DurableWrite = Mix{InsertPct: 100}
	// BufferedSyncWrite is the batch-load shape: a stream of Buffered
	// inserts punctuated by Sync barriers (5% of ops) that promote the
	// acked window wholesale.
	BufferedSyncWrite = Mix{InsertPct: 95, SyncPct: 5}
)

// ScanWithPct builds an update/scan mix with the given scan percentage
// (the Fig 14 sweep).
func ScanWithPct(scanPct int) Mix {
	return Mix{InsertPct: 100 - scanPct, ScanPct: scanPct}
}

// Valid reports whether the mix sums to 100%.
func (m Mix) Valid() bool {
	return m.GetPct+m.InsertPct+m.DeletePct+m.ScanPct+m.BatchPct+m.SnapPct+m.SyncPct == 100
}

// Sample draws an operation.
func (m Mix) Sample(rng *rand.Rand) Op {
	r := rng.Intn(100)
	if r < m.GetPct {
		return OpGet
	}
	r -= m.GetPct
	if r < m.InsertPct {
		return OpInsert
	}
	r -= m.InsertPct
	if r < m.DeletePct {
		return OpDelete
	}
	r -= m.DeletePct
	if r < m.ScanPct {
		return OpScan
	}
	r -= m.ScanPct
	if r < m.BatchPct {
		return OpBatch
	}
	r -= m.BatchPct
	if r < m.SnapPct {
		return OpSnapshot
	}
	return OpSync
}

// KeyGen produces keys from a keyspace of Keys() distinct values. NextKey
// writes the next key into dst (which must have DefaultKeySize capacity)
// and returns it.
type KeyGen interface {
	NextKey(rng *rand.Rand, dst []byte) []byte
	Keys() uint64
}

// spreadIndex maps a dense index to a key spread over the 64-bit space.
// The fixed odd multiplier is a bijection mod 2^64, so distinct indices
// give distinct keys while filling every Membuffer partition uniformly —
// matching the paper's uniform draws over a large key space.
func spreadIndex(i uint64) uint64 { return i * 0x9e3779b97f4a7c15 }

// PutUint64 writes v big-endian into dst[0:8] and returns dst[0:8].
func PutUint64(dst []byte, v uint64) []byte {
	_ = dst[7]
	dst[0] = byte(v >> 56)
	dst[1] = byte(v >> 48)
	dst[2] = byte(v >> 40)
	dst[3] = byte(v >> 32)
	dst[4] = byte(v >> 24)
	dst[5] = byte(v >> 16)
	dst[6] = byte(v >> 8)
	dst[7] = byte(v)
	return dst[:8]
}

// Uniform draws keys uniformly from a keyspace of n distinct keys.
type Uniform struct {
	n uint64
}

// NewUniform builds a uniform generator over n keys.
func NewUniform(n uint64) *Uniform { return &Uniform{n: n} }

// NextKey draws a key.
func (u *Uniform) NextKey(rng *rand.Rand, dst []byte) []byte {
	return PutUint64(dst, spreadIndex(uint64(rng.Int63n(int64(u.n)))))
}

// Keys returns the keyspace size.
func (u *Uniform) Keys() uint64 { return u.n }

// KeyAt returns the i-th key of the space (for initialization loops).
func (u *Uniform) KeyAt(i uint64, dst []byte) []byte {
	return PutUint64(dst, spreadIndex(i))
}

// Sequential yields keys in ascending key order (the paper's read-only
// initialization inserts "the same data in sorted order", §5.2).
type Sequential struct {
	n    uint64
	next uint64
}

// NewSequential builds a sequential generator over n keys.
func NewSequential(n uint64) *Sequential { return &Sequential{n: n} }

// NextKey returns the next key in ascending order, wrapping at n.
func (s *Sequential) NextKey(_ *rand.Rand, dst []byte) []byte {
	i := s.next % s.n
	s.next++
	// Ascending in FINAL key order: sort the spread images by sorting the
	// pre-image through a rank... a simple increasing counter already
	// yields ascending big-endian keys; sequential mode skips spreading.
	return PutUint64(dst, i)
}

// Keys returns the keyspace size.
func (s *Sequential) Keys() uint64 { return s.n }

// HotSet draws hotPct% of operations from a hot subset of hotFrac of the
// keyspace — the paper's "2% of the dataset is accessed by 98% of
// operations" (§5.4). The hot keys form a CONTIGUOUS key range (a shared
// prefix), matching the skew shape the paper calls out as FloDB's
// partitioning worst case ("if the data skew concerns a certain key
// range", §4.3) — this is what produces Fig 16's small-memory penalty.
type HotSet struct {
	n       uint64
	hotKeys uint64
	hotPct  int
}

// NewHotSet builds the paper's skewed generator: hotFrac of the keys
// receive hotPct% of accesses.
func NewHotSet(n uint64, hotFrac float64, hotPct int) *HotSet {
	hk := uint64(float64(n) * hotFrac)
	if hk < 1 {
		hk = 1
	}
	return &HotSet{n: n, hotKeys: hk, hotPct: hotPct}
}

// NextKey draws from the hot set with probability hotPct%. Hot keys are
// sequential (clustered prefixes); cold keys are spread like Uniform's.
func (h *HotSet) NextKey(rng *rand.Rand, dst []byte) []byte {
	if rng.Intn(100) < h.hotPct {
		return PutUint64(dst, uint64(rng.Int63n(int64(h.hotKeys))))
	}
	i := h.hotKeys + uint64(rng.Int63n(int64(h.n-h.hotKeys)))
	return PutUint64(dst, spreadIndex(i))
}

// Keys returns the keyspace size.
func (h *HotSet) Keys() uint64 { return h.n }

// HotKeys returns the hot-set cardinality.
func (h *HotSet) HotKeys() uint64 { return h.hotKeys }

// Zipfian draws keys with Zipf-distributed popularity: rank r is drawn
// with probability ∝ 1/(1+r)^s (the YCSB-style skew shape), so a small
// head of keys absorbs most operations. Ranks are SPREAD over the 64-bit
// key space (popular keys scatter uniformly, like hashed user IDs): heavy
// popularity skew with no range locality.
type Zipfian struct {
	n uint64
	s float64

	// The stdlib Zipf sampler binds to one *rand.Rand; the harness hands
	// NextKey the per-thread rng, so the sampler is built lazily on
	// first use and rebuilt if a different rng ever appears.
	rng *rand.Rand
	z   *rand.Zipf
}

// DefaultZipfS is the default Zipf exponent: a YCSB-like heavy skew
// (~theta 0.99 in YCSB terms corresponds to s just above 1).
const DefaultZipfS = 1.1

// NewZipfian builds a spread Zipfian generator over n keys with exponent
// s (s <= 1 takes DefaultZipfS; the stdlib sampler requires s > 1).
func NewZipfian(n uint64, s float64) *Zipfian {
	if s <= 1 {
		s = DefaultZipfS
	}
	if n < 1 {
		n = 1
	}
	return &Zipfian{n: n, s: s}
}

// NextKey draws a key. Not safe for concurrent use — the harness gives
// each thread its own generator.
func (z *Zipfian) NextKey(rng *rand.Rand, dst []byte) []byte {
	if z.z == nil || z.rng != rng {
		z.rng = rng
		z.z = rand.NewZipf(rng, z.s, 1, z.n-1)
	}
	return PutUint64(dst, spreadIndex(z.z.Uint64()))
}

// Keys returns the keyspace size.
func (z *Zipfian) Keys() uint64 { return z.n }

// Value fills dst with a deterministic pattern of the given size,
// allocating only when dst is too small.
func Value(dst []byte, size int, tag uint64) []byte {
	if cap(dst) < size {
		dst = make([]byte, size)
	}
	dst = dst[:size]
	for i := range dst {
		dst[i] = byte(tag + uint64(i))
	}
	return dst
}
