package figures

import (
	"fmt"

	"flodb/internal/harness"
	"flodb/internal/workload"
)

// APIBench exercises the batch, cursor, read-view and durability surface
// of the kv.Store contract across the six systems — the API shapes the
// paper's figures do not cover. Five workloads per system, at the mid
// thread count of the sweep:
//
//	batch-write: every op is a 32-mutation atomic Apply (Mops/s counts
//	             individual mutations)
//	iter-scan:   the Fig 13 scan-write mix, scans driven through
//	             NewIterator instead of Scan (Mkeys/s)
//	scan:        the same mix through materializing Scan, for comparison
//	snap-read:   the SnapshotRead mix — 2% of ops pin a Snapshot view and
//	             serve point reads through it amid live reads and writes
//	             (Mops/s). Snapshots are O(1) everywhere: the baselines
//	             are multi-versioned, and FloDB seals the Membuffer and
//	             pins a sequence bound over the live skiplist instead of
//	             materializing a flush, so this row measures read-view
//	             traffic, not flush bandwidth.
//	durable-write: every insert Sync-class (acked only after a
//	             disk barrier covers it). The column measures the paper's
//	             thesis under durability: with group commit the
//	             concurrent committers coalesce onto shared fsyncs
//	             instead of serializing the write path behind the log —
//	             without it, every system flattens to disk-barrier speed.
func APIBench(c Config) (*harness.Table, error) {
	c.Defaults()
	threads := c.Threads[len(c.Threads)/2]
	cols := []string{"batch-write Mops/s", "iter-scan Mkeys/s", "scan Mkeys/s", "snap-read Mops/s", "durable-write Kops/s"}
	tbl := harness.NewTable("API bench: atomic batches, streaming iterators, durable writes",
		fmt.Sprintf("workload (%d threads)", threads), "throughput", cols, systemRows(AllSystems))

	type cell struct {
		opts    harness.RunOptions
		metric  func(harness.Result) float64
		fill    bool
		durable bool // open with Buffered default durability
	}
	cells := []cell{
		{
			opts:   harness.RunOptions{Mix: workload.BatchWrite},
			metric: func(r harness.Result) float64 { return float64(r.Writes) / r.Elapsed.Seconds() / 1e6 },
		},
		{
			opts:   harness.RunOptions{Mix: workload.ScanWrite, IteratorScans: true},
			metric: harness.Result.MkeysPerSec,
			fill:   true,
		},
		{
			opts:   harness.RunOptions{Mix: workload.ScanWrite},
			metric: harness.Result.MkeysPerSec,
			fill:   true,
		},
		{
			opts:   harness.RunOptions{Mix: workload.SnapshotRead},
			metric: harness.Result.MopsPerSec,
			fill:   true,
		},
		{
			opts: harness.RunOptions{Mix: workload.DurableWrite, SyncWrites: true},
			// Kops/s: fsync-bound throughput is orders of magnitude below
			// the memory-speed columns.
			metric:  func(r harness.Result) float64 { return float64(r.Writes) / r.Elapsed.Seconds() / 1e3 },
			durable: true,
		},
	}
	for si, sys := range AllSystems {
		for ci, cl := range cells {
			dir, err := c.cellDir(fmt.Sprintf("api-%d-%d", si, ci))
			if err != nil {
				return nil, err
			}
			open := openSystem
			if cl.durable {
				open = openSystemDurable
			}
			store, err := open(sys, dir, c.MemBytes)
			if err != nil {
				return nil, err
			}
			if cl.fill {
				if err := initHalf(store, c.Keys, false); err != nil {
					store.Close()
					return nil, err
				}
			}
			ro := cl.opts
			ro.Threads = threads
			ro.Duration = c.Duration
			ro.Keys = c.Keys
			res, err := harness.Run(store, ro)
			if cerr := store.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("apibench: %s %s: %w", sys, cols[ci], err)
			}
			tbl.Set(si, ci, cl.metric(res))
			c.logf("apibench %s %s -> %.3f", sys, cols[ci], cl.metric(res))
		}
	}
	tbl.AddNote("batch-write counts mutations (32 per Apply); scans report keys accessed per second")
	tbl.AddNote("snap-read: 2%% of ops pin a Snapshot and serve 16 gets through it (O(1) everywhere: FloDB pins a seq bound over the live memory component)")
	tbl.AddNote("durable-write: every insert Sync-class; group commit coalesces concurrent fsyncs (note Kops/s, not Mops/s)")
	return tbl, nil
}
