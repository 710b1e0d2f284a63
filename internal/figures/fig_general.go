package figures

import (
	"fmt"

	"flodb/internal/harness"
	"flodb/internal/workload"
)

// Fig9 — write-only workload (50% inserts / 50% deletes), throughput vs
// threads, fresh store per cell (§5.2: "the write-only workload is run on
// a fresh data store"). Expected shape: FloDB highest at every thread
// count (paper: 1.9–3.5× over HyperLevelDB); LevelDB and RocksDB flat
// (single write leader / short-lock serialization); HyperLevelDB scales
// some.
func Fig9(c Config) (*harness.Table, error) {
	c.Defaults()
	tbl := harness.NewTable("Fig 9: write-only workload", "threads", "Mops/s",
		threadCols(c.Threads), systemRows())
	err := c.systemsThreadSweep("fig9", tbl, c.Threads,
		true /* fresh store */, false, false, /* no init: fresh */
		harness.RunOptions{Mix: workload.WriteOnly},
		func(r harness.Result) float64 { return r.MopsPerSec() })
	return tbl, err
}

// Fig10 — read-only workload after sequential initialization, throughput
// vs threads up to 128. Expected shape: FloDB and RocksDB/cLSM scale with
// threads; LevelDB and HyperLevelDB plateau early (global mutex on the
// read path).
func Fig10(c Config) (*harness.Table, error) {
	c.Defaults()
	threads := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if c.Quick {
		threads = []int{1, 8, 64}
	}
	tbl := harness.NewTable("Fig 10: read-only workload, sequential initialization", "threads", "Mops/s",
		threadCols(threads), systemRows())
	err := c.systemsThreadSweep("fig10", tbl, threads,
		false /* init once per system */, true /* sorted init */, true,
		harness.RunOptions{Mix: workload.ReadOnly},
		func(r harness.Result) float64 { return r.MopsPerSec() })
	return tbl, err
}

// Fig11 — mixed workload (50% reads, 25% inserts, 25% deletes) vs
// threads. Expected: FloDB ahead across the sweep.
func Fig11(c Config) (*harness.Table, error) {
	c.Defaults()
	tbl := harness.NewTable("Fig 11: mixed read-write workload", "threads", "Mops/s",
		threadCols(c.Threads), systemRows())
	err := c.systemsThreadSweep("fig11", tbl, c.Threads,
		false, false, true, /* random half init once */
		harness.RunOptions{Mix: workload.Balanced},
		func(r harness.Result) float64 { return r.MopsPerSec() })
	return tbl, err
}

// Fig12 — one writer, many readers, vs total threads. Expected: FloDB
// ahead; baselines limited by read-path synchronization.
func Fig12(c Config) (*harness.Table, error) {
	c.Defaults()
	tbl := harness.NewTable("Fig 12: mixed workload, one writer many readers", "threads", "Mops/s",
		threadCols(c.Threads), systemRows())
	err := c.systemsThreadSweep("fig12", tbl, c.Threads,
		false, false, true,
		harness.RunOptions{OneWriter: true},
		func(r harness.Result) float64 { return r.MopsPerSec() })
	return tbl, err
}

// Fig13 — scan-write workload (95% updates, 5% scans of 100 keys),
// key-throughput vs threads (§5.2 measures scans in keys accessed per
// second). Expected: FloDB first; HyperLevelDB competitive (43–90% of
// FloDB in the paper, thanks to its low file count).
func Fig13(c Config) (*harness.Table, error) {
	c.Defaults()
	// Scan-update conflict probability scales with scanLength/keyspace —
	// an absolute, not a ratio — so the scan figures run at 8x the scaled
	// keyspace to stay in the paper's conflict regime (1.2 G keys there).
	c.Keys *= 8
	tbl := harness.NewTable("Fig 13: mixed scan-write workload", "threads", "Mkeys/s",
		threadCols(c.Threads), systemRows())
	err := c.systemsThreadSweep("fig13", tbl, c.Threads,
		false, false, true,
		harness.RunOptions{Mix: workload.ScanWrite},
		func(r harness.Result) float64 { return r.MkeysPerSec() })
	tbl.AddNote("keyspace x8 (%d keys) to match the paper's scan-conflict regime", c.Keys)
	return tbl, err
}

// Fig14 — impact of the scan ratio at a fixed thread count: operation
// throughput falls with more scans while key throughput rises. Three rows:
// write ops/s, scan ops/s, and keys/s (the paper's two panels).
func Fig14(c Config) (*harness.Table, error) {
	c.Defaults()
	c.Keys *= 8 // scan-conflict regime; see Fig13
	ratios := []int{2, 5, 10, 25, 50}
	if c.Quick {
		ratios = []int{2, 10, 50}
	}
	cols := make([]string, len(ratios))
	for i, r := range ratios {
		cols[i] = fmt.Sprintf("%d%%", r)
	}
	tbl := harness.NewTable("Fig 14: impact of scan ratio (FloDB, 16 threads)", "scan %", "throughput",
		cols, []string{"write Mops/s", "scan Kops/s", "total Mkeys/s"})

	threads := 16
	if c.Quick {
		threads = 4
	}
	dir, err := c.cellDir("fig14")
	if err != nil {
		return nil, err
	}
	store, err := openSystem(SysFloDB, dir, c.MemBytes)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	if err := initHalf(store, c.Keys, false); err != nil {
		return nil, err
	}
	for i, ratio := range ratios {
		res, err := harness.Run(store, harness.RunOptions{
			Threads:  threads,
			Duration: c.Duration,
			Mix:      workload.ScanWithPct(ratio),
			Keys:     c.Keys,
		})
		if err != nil {
			return nil, fmt.Errorf("fig14 scan%%=%d: %w", ratio, err)
		}
		tbl.Set(0, i, res.WriteMopsPerSec())
		tbl.Set(1, i, res.ScanOpsPerSec()/1e3)
		tbl.Set(2, i, res.MkeysPerSec())
		c.logf("fig14 scan%%=%d -> write=%.3f Mops/s scans=%.1f Kops/s keys=%.3f Mkeys/s",
			ratio, res.WriteMopsPerSec(), res.ScanOpsPerSec()/1e3, res.MkeysPerSec())
	}
	return tbl, nil
}

// Fig15 — write-only burst with increasing memory component size.
// Expected shape: FloDB's throughput grows with memory (bigger buffer
// absorbs a longer burst); the baselines DEGRADE as memory grows (larger
// skiplist ⇒ slower inserts).
func Fig15(c Config) (*harness.Table, error) {
	c.Defaults()
	// The paper's burst draws from a 1.2 G-key space: during a burst,
	// writes are effectively always-fresh keys. A scaled-down keyspace
	// would saturate (every write an overwrite) once memory approaches
	// the dataset size, so the burst draws from a huge keyspace here.
	c.Keys = 1 << 34
	sizes := c.memorySweepSizes()
	tbl := harness.NewTable("Fig 15: write-only burst, increasing memory component size",
		"memory component (paper scale)", "Mops/s", sizeCols(sizes), systemRows())
	threads := 16
	if c.Quick {
		threads = 4
	}
	for si, sys := range AllSystems {
		for mi, mem := range sizes {
			dir, err := c.cellDir(fmt.Sprintf("fig15-%d-%d", si, mi))
			if err != nil {
				return nil, err
			}
			store, err := openSystem(sys, dir, mem)
			if err != nil {
				return nil, err
			}
			// A burst "empirically chosen such that the system is not
			// limited to its steady-state write throughput" (§5.3): run
			// for the configured duration on a fresh store.
			res, err := harness.Run(store, harness.RunOptions{
				Threads:  threads,
				Duration: c.Duration,
				Mix:      workload.WriteOnly,
				Keys:     c.Keys,
			})
			store.Close()
			if err != nil {
				return nil, fmt.Errorf("fig15 %s mem=%s: %w", sys, harness.ByteSize(mem), err)
			}
			tbl.Set(si, mi, res.MopsPerSec())
			c.logf("fig15 %s mem=%s -> %.3f Mops/s", sys, harness.ByteSize(mem), res.MopsPerSec())
		}
	}
	return tbl, nil
}

// Fig16 — skewed mixed workload (50% reads / 50% updates, 98% of
// operations on 2% of the keys) with increasing memory. Expected shape:
// once the memory component exceeds the hot set (2% of the dataset),
// FloDB's in-place updates capture the whole working set in memory and
// throughput takes off (paper: 8× average, 17× peak); the multi-versioned
// baselines stay flat because duplicate versions keep filling their
// memtables at any size.
func Fig16(c Config) (*harness.Table, error) {
	c.Defaults()
	sizes := c.memorySweepSizes()
	tbl := harness.NewTable("Fig 16: skewed (98%/2%) read-write workload, increasing memory",
		"memory component (paper scale)", "Mops/s", sizeCols(sizes), systemRows())
	threads := 16
	if c.Quick {
		threads = 4
	}
	for si, sys := range AllSystems {
		for mi, mem := range sizes {
			dir, err := c.cellDir(fmt.Sprintf("fig16-%d-%d", si, mi))
			if err != nil {
				return nil, err
			}
			store, err := openSystem(sys, dir, mem)
			if err != nil {
				return nil, err
			}
			if err := initHalf(store, c.Keys, false); err != nil {
				store.Close()
				return nil, err
			}
			res, err := harness.Run(store, harness.RunOptions{
				Threads:  threads,
				Duration: c.Duration,
				Mix:      workload.ReadUpdate,
				Keys:     c.Keys,
				KeyGen: func(int) workload.KeyGen {
					return workload.NewHotSet(c.Keys, 0.02, 98)
				},
			})
			store.Close()
			if err != nil {
				return nil, fmt.Errorf("fig16 %s mem=%s: %w", sys, harness.ByteSize(mem), err)
			}
			tbl.Set(si, mi, res.MopsPerSec())
			c.logf("fig16 %s mem=%s -> %.3f Mops/s", sys, harness.ByteSize(mem), res.MopsPerSec())
		}
	}
	hot := float64(c.Keys) * 0.02 * (workload.DefaultKeySize + workload.DefaultValueSize)
	tbl.AddNote("hot set ≈ %s of entries; expect FloDB take-off once memory exceeds it", harness.ByteSize(int64(hot)))
	return tbl, nil
}
