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
}

// The shape of every operation, the same in every cell: workers seed
// their generators from seed, values are workload.DefaultValueSize bytes,
// a scan spans scanLength keys of a uniformly spread keyspace, a write
// batch holds batchSize mutations and a snapshot session serves
// snapshotReads point reads.
const (
	seed          = 42
	scanLength    = 100
	batchSize     = 32
	snapshotReads = 16
)

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
// on the data store ... continually"). A failed operation counts in no
// field of the Result, so a cell with any is refused: Run returns an error
// naming how many failed and the first failure.
func Run(store kv.Store, opts RunOptions) (Result, error) {
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
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errCount.Add(1)
		firstErr.CompareAndSwap(nil, &err)
	}

	// One shared option slice: the write options are immutable values.
	var writeOpts []kv.WriteOption
	if opts.SyncWrites {
		writeOpts = []kv.WriteOption{kv.WithSync()}
	}

	// Scan window width covering ~scanLength keys of a uniformly spread
	// keyspace.
	scanWidth := uint64(float64(^uint64(0)) / float64(opts.Keys) * scanLength)

	start := time.Now()
	for t := 0; t < opts.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(t)*7919))
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
						fail(err)
						continue
					}
					reads.Add(1)
					keysAcc.Add(1)
					if opts.MeasureLatency {
						res.ReadLat.Observe(time.Since(begin))
					}
				case workload.OpInsert:
					valBuf = workload.Value(valBuf, workload.DefaultValueSize, myOps)
					if err := store.Put(ctx, key, valBuf, writeOpts...); err != nil {
						fail(err)
						continue
					}
					writes.Add(1)
					keysAcc.Add(1)
					if opts.MeasureLatency {
						res.WriteLat.Observe(time.Since(begin))
					}
				case workload.OpDelete:
					if err := store.Delete(ctx, key, writeOpts...); err != nil {
						fail(err)
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
							fail(err)
							continue
						}
						for ok := it.First(); ok; ok = it.Next() {
							got++
						}
						err = it.Err()
						it.Close()
						if err != nil {
							fail(err)
							continue
						}
					} else {
						pairs, err := store.Scan(ctx, low, high)
						if err != nil {
							fail(err)
							continue
						}
						got = uint64(len(pairs))
					}
					scans.Add(1)
					keysAcc.Add(got)
				case workload.OpBatch:
					batch.Reset()
					for i := 0; i < batchSize; i++ {
						if i > 0 {
							key = gen.NextKey(rng, keyBuf)
						}
						valBuf = workload.Value(valBuf, workload.DefaultValueSize, myOps+uint64(i))
						batch.Put(key, valBuf)
					}
					if err := store.Apply(ctx, batch, writeOpts...); err != nil {
						fail(err)
						continue
					}
					writes.Add(uint64(batch.Len()))
					keysAcc.Add(uint64(batch.Len()))
					if opts.MeasureLatency {
						res.WriteLat.Observe(time.Since(begin))
					}
				case workload.OpSnapshot:
					// One repeatable-read session: pin a view, serve
					// snapshotReads point reads from it, release it.
					view, err := store.Snapshot(ctx)
					if err != nil {
						fail(err)
						continue
					}
					for i := 0; i < snapshotReads && err == nil; i++ {
						if i > 0 {
							key = gen.NextKey(rng, keyBuf)
						}
						_, _, err = view.Get(ctx, key)
					}
					view.Close()
					if err != nil {
						fail(err)
						continue
					}
					snaps.Add(1)
					reads.Add(snapshotReads)
					keysAcc.Add(snapshotReads)
					if opts.MeasureLatency {
						res.ReadLat.Observe(time.Since(begin))
					}
				case workload.OpSync:
					// Durability barrier: promote everything acked so far.
					if err := store.Sync(ctx); err != nil {
						fail(err)
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
	if n := errCount.Load(); n > 0 {
		return res, fmt.Errorf("harness: %d operations failed, first: %w", n, *firstErr.Load())
	}
	return res, nil
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
