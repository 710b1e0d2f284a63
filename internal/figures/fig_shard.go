package figures

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"flodb/internal/core"
	"flodb/internal/diskenv"
	"flodb/internal/harness"
	"flodb/internal/kv"
	"flodb/internal/shard"
	"flodb/internal/workload"
)

// ShardBench measures how write throughput scales with shard count — the
// scaling axis past a single memory component. The first column is the
// single-instance baseline: one unsharded FloDB at the full memory
// budget. Every shard column opens a fresh sharded store of N
// range-partitioned FloDB instances sharing that SAME total budget, so
// the sweep isolates partitioning itself; each row is a key
// distribution:
//
//	uniform:            the paper's spread draws — every shard carries an
//	                    equal slice, the best case; throughput rises with
//	                    N until cores or the disk saturate
//	zipf:               Zipfian popularity skew with SPREAD keys
//	                    (hashed-ID shape) — hot keys scatter across
//	                    shards, so scaling holds
//	hot-shard:          Zipfian skew CLUSTERED into one contiguous range —
//	                    the adversarial case where most writes land on one
//	                    shard and added shards mostly idle (F2's
//	                    partitioned-design losing case); the per-shard
//	                    imbalance is reported as a note
//	hot-shard adaptive: the same adversarial workload over a store with
//	                    the sensor-driven rebalance controller ON — it
//	                    splits the hot range (growing that range's share
//	                    of the memory budget) and merges the idle
//	                    remainder, so the static hot-shard line is the
//	                    one it has to beat
func ShardBench(c Config) (*harness.Table, error) {
	c.Defaults()
	threads := c.Threads[len(c.Threads)/2]
	counts := []int{1, 2, 4, 8}
	if c.Quick {
		counts = []int{1, 2, 4}
	}
	maxCount := counts[len(counts)-1]
	// Every cell gets the same TOTAL memory — sized so the largest
	// fan-out still has a workable per-shard budget (at bench scale,
	// splitting the base budget N ways would drown the partitioning
	// signal in per-shard flush churn).
	totalMem := c.MemBytes * int64(maxCount)

	type row struct {
		name     string
		mix      workload.Mix
		gen      func(thread int) workload.KeyGen // nil = uniform default
		adaptive bool
	}
	keyCount := c.Keys
	hotGen := func(int) workload.KeyGen { return workload.NewHotShardZipfian(keyCount, workload.DefaultZipfS) }
	rows := []row{
		{name: "uniform write", mix: workload.WriteOnly},
		{name: "zipf write", mix: workload.WriteOnly,
			gen: func(int) workload.KeyGen { return workload.NewZipfian(keyCount, workload.DefaultZipfS) }},
		{name: "hot-shard write", mix: workload.HotShardWrite, gen: hotGen},
		{name: "hot-shard adaptive", mix: workload.HotShardWrite, gen: hotGen, adaptive: true},
	}

	cols := make([]string, 0, len(counts)+1)
	cols = append(cols, "core")
	for _, n := range counts {
		cols = append(cols, fmt.Sprintf("%d", n))
	}
	rowNames := make([]string, len(rows))
	for i, r := range rows {
		rowNames[i] = r.name
	}
	tbl := harness.NewTable("Shard scaling: write throughput vs shard count (equal total memory)",
		fmt.Sprintf("shards (%d threads; core = one unsharded FloDB)", threads), "write Mops/s", cols, rowNames)

	var adaptiveFinal []string
	for ri, r := range rows {
		for ci := range cols {
			dir, err := c.cellDir(fmt.Sprintf("shardbench-%d-%d", ri, ci))
			if err != nil {
				return nil, err
			}
			var store kv.Store
			switch {
			case ci == 0:
				// The single-instance baseline every shard column is
				// judged against: one FloDB, full budget, no pipeline.
				store, err = core.Open(core.Config{
					Dir: dir, MemoryBytes: totalMem, DisableWAL: true,
					PersistLimiter: c.limiter(), Storage: storageOpts(totalMem),
				})
			case r.adaptive:
				store, err = openShardAdaptive(dir, counts[ci-1], maxCount, totalMem, c.limiter())
			default:
				store, err = openShard(dir, counts[ci-1], totalMem, c.limiter(), false)
			}
			if err != nil {
				return nil, err
			}
			opts := harness.RunOptions{
				Mix:      r.mix,
				KeyGen:   r.gen,
				Threads:  threads,
				Duration: c.Duration,
				Keys:     c.Keys,
			}
			// Unmeasured warmup: every cell measures its steady state, not
			// the empty-store transient — and the adaptive row's controller
			// gets its split/merge churn (the FENCE-COPY-SWAP copies) out
			// of the way so the measured phase sees the converged topology.
			harness.Run(store, opts)
			res := harness.Run(store, opts)
			if ss, ok := store.(*shard.Store); ok {
				// Imbalance: the hottest shard's share of puts. 1/n is a
				// perfect spread; ~1.0 is a single hot shard.
				if n := counts[ci-1]; n == maxCount && strings.HasPrefix(r.name, "hot-shard") {
					var total, hottest uint64
					for _, st := range ss.PerShard() {
						total += st.Puts
						if st.Puts > hottest {
							hottest = st.Puts
						}
					}
					if total > 0 {
						tbl.AddNote("%s @ %d shards: hottest shard carried %.0f%% of puts (even = %.0f%%)",
							r.name, len(ss.PerShard()), 100*float64(hottest)/float64(total), 100/float64(len(ss.PerShard())))
					}
				}
				if r.adaptive {
					st := ss.Stats()
					adaptiveFinal = append(adaptiveFinal, fmt.Sprintf("%d->%d (%d splits, %d merges)",
						counts[ci-1], ss.Topology().Shards, st.ShardSplits, st.ShardMerges))
				}
			}
			if err := store.Close(); err != nil {
				return nil, err
			}
			if res.Errors > 0 {
				return nil, fmt.Errorf("shardbench: %s col=%s: %d errors", r.name, cols[ci], res.Errors)
			}
			tbl.Set(ri, ci, res.WriteMopsPerSec())
			c.logf("shardbench %s shards=%s -> %.3f Mops/s", r.name, cols[ci], res.WriteMopsPerSec())
		}
	}
	if len(adaptiveFinal) > 0 {
		tbl.AddNote("adaptive topology per column: %s", strings.Join(adaptiveFinal, ", "))
	}
	tbl.AddNote("every cell shares one total memory budget split across its shards; WAL off (loader shape)")
	if p := runtime.GOMAXPROCS(0); p < 4 {
		tbl.AddNote("GOMAXPROCS=%d: shard commit pipelines are flat-combined onto producer threads, so columns measure partitioning overhead only — parallel scaling needs a multi-core runner", p)
	}
	return tbl, nil
}

// openShardAdaptive builds the dynamic engine the adaptive row runs: a
// range-partitioned store whose rebalance controller may split hot
// shards and merge cold ones between MinShards=1 and maxShards, on a
// sensor window fast enough to act within a bench cell.
func openShardAdaptive(dir string, shards, maxShards int, memBytes int64, lim *diskenv.Limiter) (kv.Store, error) {
	perShard := memBytes / int64(shards)
	return shard.Open(shard.Config{
		Dir: dir, Shards: shards,
		Core: core.Config{
			MemoryBytes:    memBytes,
			DisableWAL:     true,
			PersistLimiter: lim,
			Storage:        storageOpts(perShard),
		},
		// Damped controller: a 50ms sensor window converges within the
		// warmup phase, and the longer hysteresis/cooldown keep the
		// measured phase from paying oscillating split/merge copies.
		Dynamic: shard.Dynamic{
			Enabled:      true,
			MinShards:    1,
			MaxShards:    maxShards,
			Interval:     50 * time.Millisecond,
			MinWindowOps: 256,
			Hysteresis:   3,
			Cooldown:     6,
		},
	})
}
