package figures

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"flodb/internal/baseline"
	"flodb/internal/harness"
	"flodb/internal/membuffer"
	"flodb/internal/skiplist"
	"flodb/internal/workload"
)

// maxLatencyCellRuns bounds how often latencyVsMemory reruns a cell that
// recorded no read or no write latency.
const maxLatencyCellRuns = 5

// latencyVsMemory is the shared engine of Figs 3 and 4: RocksDB-style
// store, readwhilewriting (8 readers + 1 writer on a 1M-entry database),
// median read and write latency as memory grows, normalized to the first
// size.
func latencyVsMemory(c Config, kind baseline.MemKind, title string) (*harness.Table, error) {
	c.Defaults()
	sizes := []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}
	if c.Quick {
		sizes = []int64{128 << 10, 1 << 20, 8 << 20}
	}
	dbKeys := c.Keys
	if dbKeys > 1<<20 {
		dbKeys = 1 << 20 // the paper uses a 1 million-entry database
	}
	tbl := harness.NewTable(title, "memory component (paper scale)", "normalized median latency",
		sizeCols(sizes), []string{"Read Latency", "Write Latency"})

	var baseRead, baseWrite float64
	for mi, mem := range sizes {
		dir, err := c.cellDir(fmt.Sprintf("fig34-%d-%d", kind, mi))
		if err != nil {
			return nil, err
		}
		store, err := baseline.NewRocksDB(baseline.Config{
			Dir: dir, MemBytes: mem, MemKind: kind, DisableWAL: true,
			Storage: storageOpts(mem),
		})
		if err != nil {
			return nil, err
		}
		if err := initHalf(store, dbKeys, false); err != nil {
			store.Close()
			return nil, err
		}
		// A short cell can end before the lone writer (or a reader)
		// completes an operation; a median over no samples is no
		// measurement, so such a cell runs again.
		var res harness.Result
		for run := 1; ; run++ {
			res = harness.Run(store, harness.RunOptions{
				Threads:        9, // 8 readers + 1 writer via OneWriter
				OneWriter:      true,
				Duration:       c.Duration,
				Keys:           dbKeys,
				MeasureLatency: true,
			})
			if res.ReadLat.Count() > 0 && res.WriteLat.Count() > 0 {
				break
			}
			if run == maxLatencyCellRuns {
				store.Close()
				return nil, fmt.Errorf("%s mem=%s: %d runs recorded %d reads and %d writes, want both > 0",
					title, harness.ByteSize(mem), run, res.ReadLat.Count(), res.WriteLat.Count())
			}
		}
		store.Close()
		readMed := float64(res.ReadLat.Snapshot().Quantile(0.5))
		writeMed := float64(res.WriteLat.Snapshot().Quantile(0.5))
		if mi == 0 {
			baseRead, baseWrite = readMed, writeMed
		}
		tbl.Set(0, mi, readMed/baseRead)
		tbl.Set(1, mi, writeMed/baseWrite)
		c.logf("%s mem=%s -> read=%.0fns write=%.0fns", title, harness.ByteSize(mem), readMed, writeMed)
	}
	tbl.AddNote("latencies normalized to the %s memory component, as in the paper", sizeCols(sizes)[0])
	return tbl, nil
}

// Fig3 — RocksDB with a skiplist memtable: write latency RISES with
// memory size (O(log n) inserts into an ever-larger skiplist); read
// latency roughly flat (most reads hit disk).
func Fig3(c Config) (*harness.Table, error) {
	return latencyVsMemory(c, baseline.MemSkiplist,
		"Fig 3: RocksDB skiplist memtable, median latency vs memory size")
}

// Fig4 — RocksDB with a hash memtable: write latency rises even more
// steeply (writers stall behind the linearithmic pre-flush sort).
func Fig4(c Config) (*harness.Table, error) {
	return latencyVsMemory(c, baseline.MemHash,
		"Fig 4: RocksDB hash memtable, median latency vs memory size")
}

// rawStructureSweep drives Figs 5 and 7: raw concurrent structure
// throughput on a 50/50 read-write mix across thread counts and dataset
// sizes. The paper's sizes are 32K/1M/33M/1B entries; the largest two
// scale down to 4M, as a structure of 33M or 1B entries would not fit the
// scaled memory budget or a cell of seconds.
func rawStructureSweep(c Config, run func(size uint64, threads int, d time.Duration) float64, title string) (*harness.Table, error) {
	c.Defaults()
	sizes := []uint64{32 << 10, 1 << 20, 4 << 20}
	labels := []string{"32K", "1M", "4M (scaled 33M/1B)"}
	if c.Quick {
		sizes = []uint64{32 << 10, 1 << 20}
		labels = labels[:2]
	}
	threads := c.Threads
	tbl := harness.NewTable(title, "threads", "Mops/s", threadCols(threads), labels)
	for si, size := range sizes {
		for ti, th := range threads {
			mops := run(size, th, c.Duration)
			tbl.Set(si, ti, mops)
			c.logf("%s size=%s threads=%d -> %.2f Mops/s", title, labels[si], th, mops)
		}
	}
	return tbl, nil
}

// Fig5 — concurrent hash table (the Membuffer structure) raw throughput:
// high absolute numbers, scales with threads, insensitive to size.
func Fig5(c Config) (*harness.Table, error) {
	return rawStructureSweep(c, func(size uint64, threads int, d time.Duration) float64 {
		buf := membuffer.New(membuffer.Config{
			Buckets:       int(size / 2), // ~50% occupancy at |size| entries
			PartitionBits: 6,
		})
		var fill [8]byte
		for i := uint64(0); i < size; i++ {
			buf.Add(workload.PutUint64(fill[:], i*0x9e3779b97f4a7c15), []byte("v"), false)
		}
		return runRaw(threads, d, func(rng *rand.Rand, key []byte) {
			k := workload.PutUint64(key, (rng.Uint64()%size)*0x9e3779b97f4a7c15)
			if rng.Intn(2) == 0 {
				buf.Get(k)
			} else {
				// Add retains the key slice (slots alias their inputs), so
				// the reused buffer must be cloned — the same per-write
				// copy the store layer pays before handing keys over.
				buf.Add(append([]byte(nil), k...), []byte("v"), false)
			}
		})
	}, "Fig 5: concurrent hash table, mixed read-write")
}

// Fig7 — concurrent skiplist (the Memtable structure) raw throughput:
// one to two orders of magnitude below the hash table, degrading with
// size — the gap that motivates the two-level design.
func Fig7(c Config) (*harness.Table, error) {
	return rawStructureSweep(c, func(size uint64, threads int, d time.Duration) float64 {
		list := skiplist.New()
		var fill [8]byte
		e := &skiplist.Entry{Value: []byte("v")}
		for i := uint64(0); i < size; i++ {
			list.Insert(append([]byte(nil), workload.PutUint64(fill[:], i*0x9e3779b97f4a7c15)...), e)
		}
		return runRaw(threads, d, func(rng *rand.Rand, key []byte) {
			k := workload.PutUint64(key, (rng.Uint64()%size)*0x9e3779b97f4a7c15)
			if rng.Intn(2) == 0 {
				list.Get(k)
			} else {
				// Unnumbered, like the fill: equal sequence numbers keep
				// last-arrival order, so every write is a real update.
				list.Insert(append([]byte(nil), k...), &skiplist.Entry{Value: []byte("v")})
			}
		})
	}, "Fig 7: concurrent skiplist, mixed read-write")
}

// runRaw drives op() from `threads` goroutines for duration d and returns
// Mops/s.
func runRaw(threads int, d time.Duration, op func(rng *rand.Rand, key []byte)) float64 {
	var stop atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(t + 1)))
			key := make([]byte, 8)
			var n uint64
			for !stop.Load() {
				op(rng, key)
				n++
			}
			ops.Add(n)
		}(t)
	}
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	wg.Wait()
	timer.Stop()
	return float64(ops.Load()) / time.Since(start).Seconds() / 1e6
}

// Fig8 — simple inserts vs 5-key multi-inserts as a function of
// neighborhood size. Path reuse pays off more as batches get more local:
// multi-insert's advantage grows as the neighborhood shrinks.
func Fig8(c Config) (*harness.Table, error) {
	c.Defaults()
	// Paper: neighborhood sizes 10, 100, 1000, 10000, None over a 100M
	// element skiplist; scaled initial size below.
	neighborhoods := []struct {
		label string
		bits  uint
	}{
		{"10", 16}, {"100", 20}, {"1000", 24}, {"10000", 28}, {"None", 64},
	}
	initial := uint64(1 << 20)
	if c.Quick {
		initial = 1 << 17
	}
	cols := make([]string, len(neighborhoods))
	for i, n := range neighborhoods {
		cols[i] = n.label
	}
	tbl := harness.NewTable("Fig 8: simple insert vs 5-key multi-insert by neighborhood size",
		"neighborhood size", "Mops/s", cols, []string{"Simple insert", "Multi-insert"})

	threads := 4
	if c.Quick {
		threads = 2
	}
	const batchKeys = 5
	for ni, nb := range neighborhoods {
		for mode := 0; mode < 2; mode++ {
			list := skiplist.New()
			var fill [8]byte
			seed := &skiplist.Entry{Value: []byte("v")}
			for i := uint64(0); i < initial; i++ {
				list.Insert(append([]byte(nil), workload.PutUint64(fill[:], i*0x9e3779b97f4a7c15)...), seed)
			}
			gen := workload.NewNeighborhood(1<<62, nb.bits)
			multi := mode == 1
			mops := runRaw(threads, c.Duration, makeFig8Op(list, gen, batchKeys, multi))
			// runRaw counts op() calls; each op inserts batchKeys keys.
			mops *= batchKeys
			tbl.Set(mode, ni, mops)
			c.logf("fig8 nbhd=%s multi=%v -> %.3f Mkeys/s", nb.label, multi, mops)
		}
	}
	tbl.AddNote("initial skiplist size %d keys (paper: 100M)", initial)
	return tbl, nil
}

func makeFig8Op(list *skiplist.List, gen *workload.Neighborhood, batchKeys int, multi bool) func(rng *rand.Rand, key []byte) {
	return func(rng *rand.Rand, key []byte) {
		var scratch [8]uint64
		batch := gen.NextBatch(rng, batchKeys, scratch[:0])
		if multi {
			kvs := make([]skiplist.KV, len(batch))
			for i, k := range batch {
				kvs[i] = skiplist.KV{
					Key:   workload.PutUint64(make([]byte, 8), k),
					Entry: &skiplist.Entry{Value: []byte("m"), Seq: k},
				}
			}
			list.MultiInsert(kvs)
		} else {
			for _, k := range batch {
				list.Insert(workload.PutUint64(make([]byte, 8), k), &skiplist.Entry{Value: []byte("s"), Seq: k})
			}
		}
	}
}
