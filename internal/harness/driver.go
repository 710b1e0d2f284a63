// Package harness drives the paper's experiments: fixed-duration
// multi-threaded closed-loop drivers over any kv.Store (each worker
// issues its next operation when the previous one returns), latency
// histograms (obs.Histogram, the one the store's telemetry records into),
// and table/CSV reporting for every figure in §5.
package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/workload"
)

// RunOptions configure one experiment cell (one point of one figure).
type RunOptions struct {
	// Threads is the number of concurrent worker goroutines ("each thread
	// mapped to a different core whenever possible", §5.1 — goroutines
	// here, which the Go scheduler spreads over GOMAXPROCS cores without
	// pinning any).
	Threads int
	// Duration bounds the measured interval.
	Duration time.Duration
	// Mix is the operation distribution.
	Mix workload.Mix
	// Keys is the keyspace size; KeyGen overrides the default uniform
	// generator when set (thread index passed for determinism).
	Keys   uint64
	KeyGen func(thread int) workload.KeyGen
	// ValueSize is the value payload (default 256).
	ValueSize int
	// ScanLength is the expected number of keys per scan (default 100).
	ScanLength int
	// BatchSize is the number of mutations per OpBatch write batch
	// (default 16).
	BatchSize int
	// SnapshotReads is the number of point reads served through each
	// OpSnapshot view before it is released (default 16).
	SnapshotReads int
	// IteratorScans drives OpScan through Store.NewIterator instead of
	// Scan: the range streams through the cursor without materializing,
	// measuring the iterator path of the contract.
	IteratorScans bool
	// SyncWrites makes every mutation (OpInsert, OpDelete, OpBatch) a
	// Sync-class commit (kv.WithSync()): the op is acknowledged only
	// after a group-committed disk barrier covers it — the durable-write
	// column of apibench.
	SyncWrites bool
	// MeasureLatency enables per-op histograms (adds two clock reads per
	// op; off for pure throughput numbers, as in db_bench).
	MeasureLatency bool
	// Seed makes runs repeatable.
	Seed int64
	// MaxOps optionally stops each thread after this many operations
	// (burst mode, Fig 15).
	MaxOps uint64
	// OneWriter pins thread 0 to inserts and all others to gets (the
	// one-writer-many-readers mix of Fig 12).
	OneWriter bool
}

func (o *RunOptions) fillDefaults() {
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.Keys == 0 {
		o.Keys = 1 << 20
	}
	if o.ValueSize <= 0 {
		o.ValueSize = workload.DefaultValueSize
	}
	if o.ScanLength <= 0 {
		o.ScanLength = 100
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 16
	}
	if o.SnapshotReads <= 0 {
		o.SnapshotReads = 16
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// Result aggregates one cell's measurements.
type Result struct {
	Ops          uint64
	Reads        uint64
	Writes       uint64
	Scans        uint64
	Snapshots    uint64
	Syncs        uint64 // Sync barrier ops (OpSync)
	KeysAccessed uint64 // scans count each returned key (§5.2)
	Elapsed      time.Duration
	ReadLat      *obs.Histogram
	WriteLat     *obs.Histogram
	Errors       uint64
}

// MopsPerSec returns throughput in millions of operations per second.
func (r Result) MopsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

// MkeysPerSec returns key-throughput (Fig 13/14's metric: "for scans we
// measure throughput as the number of keys accessed per second").
func (r Result) MkeysPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.KeysAccessed) / r.Elapsed.Seconds() / 1e6
}

// WriteMopsPerSec returns write-only throughput.
func (r Result) WriteMopsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Writes) / r.Elapsed.Seconds() / 1e6
}

// ScanOpsPerSec returns scans per second.
func (r Result) ScanOpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Scans) / r.Elapsed.Seconds()
}

// Run drives store with opts and collects a Result. Each thread draws
// operations from the mix and keys from its generator, continually, until
// the duration elapses (§5.2: "threads concurrently performing operations
// on the data store ... continually").
func Run(store kv.Store, opts RunOptions) Result {
	opts.fillDefaults()
	ctx := context.Background()
	res := Result{
		ReadLat:  obs.NewHistogram(),
		WriteLat: obs.NewHistogram(),
	}
	var (
		stop     atomic.Bool
		ops      atomic.Uint64
		reads    atomic.Uint64
		writes   atomic.Uint64
		scans    atomic.Uint64
		snaps    atomic.Uint64
		syncs    atomic.Uint64
		keysAcc  atomic.Uint64
		errCount atomic.Uint64
		wg       sync.WaitGroup
	)

	// One shared option slice: the write options are immutable values.
	var writeOpts []kv.WriteOption
	if opts.SyncWrites {
		writeOpts = []kv.WriteOption{kv.WithSync()}
	}

	// Scan window width covering ~ScanLength keys of a uniformly spread
	// keyspace.
	scanWidth := uint64(float64(^uint64(0)) / float64(opts.Keys) * float64(opts.ScanLength))

	start := time.Now()
	for t := 0; t < opts.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(t)*7919))
			var gen workload.KeyGen
			if opts.KeyGen != nil {
				gen = opts.KeyGen(t)
			} else {
				gen = workload.NewUniform(opts.Keys)
			}
			keyBuf := make([]byte, workload.DefaultKeySize)
			highBuf := make([]byte, workload.DefaultKeySize)
			var valBuf []byte
			batch := kv.NewBatch()
			var myOps uint64
			for !stop.Load() {
				if opts.MaxOps > 0 && myOps >= opts.MaxOps {
					break
				}
				myOps++
				op := opts.Mix.Sample(rng)
				if opts.OneWriter {
					if t == 0 {
						op = workload.OpInsert
					} else {
						op = workload.OpGet
					}
				}
				key := gen.NextKey(rng, keyBuf)
				var begin time.Time
				if opts.MeasureLatency {
					begin = time.Now()
				}
				switch op {
				case workload.OpGet:
					_, _, err := store.Get(ctx, key)
					if err != nil {
						errCount.Add(1)
						continue
					}
					reads.Add(1)
					keysAcc.Add(1)
					if opts.MeasureLatency {
						res.ReadLat.Observe(time.Since(begin))
					}
				case workload.OpInsert:
					valBuf = workload.Value(valBuf, opts.ValueSize, myOps)
					if err := store.Put(ctx, key, valBuf, writeOpts...); err != nil {
						errCount.Add(1)
						continue
					}
					writes.Add(1)
					keysAcc.Add(1)
					if opts.MeasureLatency {
						res.WriteLat.Observe(time.Since(begin))
					}
				case workload.OpDelete:
					if err := store.Delete(ctx, key, writeOpts...); err != nil {
						errCount.Add(1)
						continue
					}
					writes.Add(1)
					keysAcc.Add(1)
					if opts.MeasureLatency {
						res.WriteLat.Observe(time.Since(begin))
					}
				case workload.OpScan:
					low := key
					var hv uint64
					for i := 0; i < 8; i++ {
						hv = hv<<8 | uint64(low[i])
					}
					high := workload.PutUint64(highBuf, hv+scanWidth)
					if hv+scanWidth < hv { // wrapped: open upper bound
						high = nil
					}
					var got uint64
					if opts.IteratorScans {
						it, err := store.NewIterator(ctx, low, high)
						if err != nil {
							errCount.Add(1)
							continue
						}
						for ok := it.First(); ok; ok = it.Next() {
							got++
						}
						err = it.Err()
						it.Close()
						if err != nil {
							errCount.Add(1)
							continue
						}
					} else {
						pairs, err := store.Scan(ctx, low, high)
						if err != nil {
							errCount.Add(1)
							continue
						}
						got = uint64(len(pairs))
					}
					scans.Add(1)
					keysAcc.Add(got)
				case workload.OpBatch:
					batch.Reset()
					for i := 0; i < opts.BatchSize; i++ {
						if i > 0 {
							key = gen.NextKey(rng, keyBuf)
						}
						valBuf = workload.Value(valBuf, opts.ValueSize, myOps+uint64(i))
						batch.Put(key, valBuf)
					}
					if err := store.Apply(ctx, batch, writeOpts...); err != nil {
						errCount.Add(1)
						continue
					}
					writes.Add(uint64(batch.Len()))
					keysAcc.Add(uint64(batch.Len()))
					if opts.MeasureLatency {
						res.WriteLat.Observe(time.Since(begin))
					}
				case workload.OpSnapshot:
					// One repeatable-read session: pin a view, serve
					// SnapshotReads point reads from it, release it.
					view, err := store.Snapshot(ctx)
					if err != nil {
						errCount.Add(1)
						continue
					}
					failed := false
					for i := 0; i < opts.SnapshotReads; i++ {
						if i > 0 {
							key = gen.NextKey(rng, keyBuf)
						}
						if _, _, err := view.Get(ctx, key); err != nil {
							failed = true
							break
						}
					}
					view.Close()
					if failed {
						errCount.Add(1)
						continue
					}
					snaps.Add(1)
					reads.Add(uint64(opts.SnapshotReads))
					keysAcc.Add(uint64(opts.SnapshotReads))
					if opts.MeasureLatency {
						res.ReadLat.Observe(time.Since(begin))
					}
				case workload.OpSync:
					// Durability barrier: promote everything acked so far.
					if err := store.Sync(ctx); err != nil {
						errCount.Add(1)
						continue
					}
					syncs.Add(1)
					if opts.MeasureLatency {
						res.WriteLat.Observe(time.Since(begin))
					}
				}
				ops.Add(1)
			}
		}(t)
	}

	timer := time.AfterFunc(opts.Duration, func() { stop.Store(true) })
	wg.Wait()
	timer.Stop()
	res.Elapsed = time.Since(start)
	res.Ops = ops.Load()
	res.Reads = reads.Load()
	res.Writes = writes.Load()
	res.Scans = scans.Load()
	res.Snapshots = snaps.Load()
	res.Syncs = syncs.Load()
	res.KeysAccessed = keysAcc.Load()
	res.Errors = errCount.Load()
	return res
}

// Fill loads n keys into store (half-dataset random initialization of
// §5.2 when used with a shuffled order; sorted when sequential).
func Fill(store kv.Store, gen func(i uint64) []byte, n uint64, valueSize int) error {
	ctx := context.Background()
	var val []byte
	for i := uint64(0); i < n; i++ {
		val = workload.Value(val, valueSize, i)
		if err := store.Put(ctx, gen(i), val); err != nil {
			return fmt.Errorf("harness: fill at %d: %w", i, err)
		}
	}
	return nil
}

// Quiescer is implemented by stores that can wait out background disk
// work; the harness calls it between initialization and measurement
// ("we wait until draining to disk and compactions have completed before
// starting the experiment", §5.2).
type Quiescer interface {
	WaitDiskQuiesce()
}

// Quiesce waits for background work if the store supports it.
func Quiesce(store kv.Store) {
	if q, ok := store.(Quiescer); ok {
		q.WaitDiskQuiesce()
	}
}
