// Package figures regenerates every figure of the paper's evaluation
// (§5, Figs 3–17 less the architecture diagrams). Each function produces a
// harness.Table whose rows are the paper's series and whose columns are
// the paper's x-axis, at a configurable scale.
//
// Scaling (see DESIGN.md §3): the paper's machine is a 20-core Xeon with
// 256 GB RAM and a 300 GB dataset; sizes here default to 1/1024 of the
// paper's (128 MB→128 KB … 192 GB→192 MB, 300 GB→~300 MB) so every ratio
// that drives the results — memory:dataset, membuffer:memtable, hot-set:
// memory — is preserved while cells run in seconds. Absolute Mops/s are
// not comparable to the paper's hardware; the SHAPES (who wins, by what
// factor, where the crossovers sit) are what EXPERIMENTS.md validates.
package figures

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"flodb/internal/baseline"
	"flodb/internal/core"
	"flodb/internal/diskenv"
	"flodb/internal/harness"
	"flodb/internal/kv"
	"flodb/internal/shard"
	"flodb/internal/storage"
	"flodb/internal/workload"
)

// System identifies one of the evaluated stores.
type System string

// The five systems of §5.1, plus the sharded engine (ShardCount
// independent FloDB instances behind one kv.Store — the scaling axis
// past a single memory component) and the networked engine (a FloDB
// instance behind an in-process flodbd server, every operation paying a
// loopback round trip through internal/wire).
const (
	SysFloDB   System = "FloDB"
	SysShard   System = "FloDB/4shards"
	SysNet     System = "FloDB/net"
	SysCluster System = "FloDB/cluster"
	SysRocks   System = "RocksDB"
	SysCLSM    System = "RocksDB/cLSM"
	SysHyper   System = "HyperLevelDB"
	SysLevel   System = "LevelDB"
)

// ShardCount is the shard fan-out SysShard runs with. Its memory budget
// is the same TOTAL the other systems get, split across shards, so the
// comparison isolates partitioning, not extra memory.
const ShardCount = 4

// AllSystems lists the systems in legend order: the paper's five plus
// the sharded sixth, the networked seventh, and the replicated eighth
// (a 3-node ring at R=2, every operation a quorum fan-out), so every
// conformance suite and figure sweeps them too.
var AllSystems = []System{SysFloDB, SysShard, SysNet, SysCluster, SysRocks, SysCLSM, SysHyper, SysLevel}

// Config scales an experiment run.
type Config struct {
	// ScratchDir hosts the store directories (one per cell).
	ScratchDir string
	// Duration per measured cell.
	Duration time.Duration
	// Keys is the dataset keyspace (paper: ~1.2 G keys for 300 GB).
	Keys uint64
	// MemBytes is the default memory-component size (paper: 128 MB).
	MemBytes int64
	// Threads is the thread sweep for the thread-scaling figures.
	Threads []int
	// DiskBytesPerSec, when > 0, rate-limits persists to model the
	// paper's SSD bound (Fig 9's dashed line).
	DiskBytesPerSec float64
	// Quick trims sweeps for smoke runs.
	Quick bool
	// Out receives progress lines (nil silences them).
	Out io.Writer
}

// Defaults fills unset fields with the scaled defaults.
func (c *Config) Defaults() {
	if c.ScratchDir == "" {
		c.ScratchDir = filepath.Join(os.TempDir(), "flodb-bench")
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Keys == 0 {
		c.Keys = 1 << 20 // ~290 MB of 277 B records ≈ 300 GB / 1024
	}
	if c.MemBytes == 0 {
		c.MemBytes = 128 << 10 // 128 MB / 1024
	}
	if len(c.Threads) == 0 {
		if c.Quick {
			c.Threads = []int{1, 4, 16}
		} else {
			c.Threads = []int{1, 2, 4, 8, 16}
		}
	}
	if c.Quick && c.Keys > 1<<18 {
		c.Keys = 1 << 18
	}
}

func (c *Config) logf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format+"\n", args...)
	}
}

func (c *Config) limiter() *diskenv.Limiter {
	if c.DiskBytesPerSec > 0 {
		return diskenv.NewLimiter(c.DiskBytesPerSec)
	}
	return nil
}

// storageOpts scales the disk component with the memory component so the
// level geometry stays proportionate.
func storageOpts(memBytes int64) storage.Options {
	base := memBytes * 4
	if base < 1<<20 {
		base = 1 << 20
	}
	target := memBytes
	if target < 256<<10 {
		target = 256 << 10
	}
	o := storage.Options{BaseLevelBytes: base, TargetFileSize: target}
	if tinyCachesForTest {
		// A 1-byte block cache admits nothing (every block read is a
		// miss) and 2 table handles force constant reader reopen/close
		// churn — the cache-starvation configuration the tiny-cache
		// conformance rerun drives the suites through.
		o.BlockCacheBytes = 1
		o.TableCacheCapacity = 2
	}
	return o
}

// tinyCachesForTest, when set, opens every store with a pathologically
// small block cache (1 byte) and table cache (2 handles), so the
// conformance suites exercise the miss/eviction/reopen paths instead of
// the warm ones. Flipped by the tiny-cache conformance test.
var tinyCachesForTest bool

// openSystem builds one of the six stores. Benchmarks run with the WAL
// disabled, like the paper's db_bench-style loaders (no fsync per write);
// cells that measure the durable write path use openSystemDurable.
func openSystem(sys System, dir string, memBytes int64, lim *diskenv.Limiter) (kv.Store, error) {
	return openSystemMode(sys, dir, memBytes, lim, false)
}

// openSystemDurable builds one of the six stores with the commit log ON
// (Buffered default durability) — the configuration the durable-write
// apibench column and the durability conformance suite measure.
func openSystemDurable(sys System, dir string, memBytes int64, lim *diskenv.Limiter) (kv.Store, error) {
	return openSystemMode(sys, dir, memBytes, lim, true)
}

func openSystemMode(sys System, dir string, memBytes int64, lim *diskenv.Limiter, walOn bool) (kv.Store, error) {
	switch sys {
	case SysFloDB:
		return core.Open(core.Config{
			Dir:            dir,
			MemoryBytes:    memBytes,
			DisableWAL:     !walOn,
			PersistLimiter: lim,
			Storage:        storageOpts(memBytes),
		})
	case SysShard:
		return openShard(dir, ShardCount, memBytes, lim, walOn)
	case SysNet:
		return openNet(dir, memBytes, lim, walOn)
	case SysCluster:
		return openCluster(dir, memBytes, lim, walOn)
	}
	cfg := baseline.Config{
		Dir: dir, MemBytes: memBytes, DisableWAL: !walOn,
		PersistLimiter: lim, Storage: storageOpts(memBytes),
	}
	switch sys {
	case SysRocks:
		return baseline.NewRocksDB(cfg)
	case SysCLSM:
		return baseline.NewCLSM(cfg)
	case SysHyper:
		return baseline.NewHyperLevelDB(cfg)
	case SysLevel:
		return baseline.NewLevelDB(cfg)
	default:
		return nil, fmt.Errorf("figures: unknown system %q", sys)
	}
}

// openShard builds the sharded engine: shards × core.DB behind one
// kv.Store, range-partitioned uniformly, sharing the total memory budget
// and the disk limiter (one physical disk however many shards).
func openShard(dir string, shards int, memBytes int64, lim *diskenv.Limiter, walOn bool) (kv.Store, error) {
	perShard := memBytes / int64(shards)
	cfg := core.Config{
		MemoryBytes:    memBytes,
		DisableWAL:     !walOn,
		PersistLimiter: lim,
		Storage:        storageOpts(perShard),
	}
	sc := shard.Config{Dir: dir, Shards: shards, Core: cfg}
	if dynamicShardForTest {
		// Dynamic adoption also makes reopen-after-crash paths work: the
		// manifest's post-churn shard count wins over the static hint.
		sc.Dynamic = shard.Dynamic{Enabled: true, MinShards: 1, MaxShards: shards * 2}
	}
	st, err := shard.Open(sc)
	if err != nil {
		return nil, err
	}
	if dynamicShardForTest {
		return &epochChurner{Store: st}, nil
	}
	return st, nil
}

// dynamicShardForTest, when set, opens every sharded engine with the
// rebalance controller ON and wraps it in an epochChurner, so the view
// and durability conformance suites run over a store whose topology is
// guaranteed to change epochs mid-suite. Flipped by the epoch-change
// conformance rerun.
var dynamicShardForTest bool

// epochChurner forces deterministic topology churn into whatever
// workload runs over it: the 64th mutation performs a split and the
// 192nd a merge, synchronously on the mutating goroutine — every
// conformance assertion that follows runs against a store that crossed
// at least one epoch boundary. Churn failures surface through the op
// that triggered them, so the suites report them instead of silently
// losing the forced epoch change.
type epochChurner struct {
	*shard.Store
	ops atomic.Uint64
}

func (c *epochChurner) churn() error {
	switch c.ops.Add(1) {
	case 64:
		return c.Store.Split(0)
	case 192:
		return c.Store.Merge(0)
	}
	return nil
}

func (c *epochChurner) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	if err := c.churn(); err != nil {
		return fmt.Errorf("figures: forced epoch churn: %w", err)
	}
	return c.Store.Put(ctx, key, value, opts...)
}

func (c *epochChurner) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	if err := c.churn(); err != nil {
		return fmt.Errorf("figures: forced epoch churn: %w", err)
	}
	return c.Store.Delete(ctx, key, opts...)
}

func (c *epochChurner) Apply(ctx context.Context, b *kv.Batch, opts ...kv.WriteOption) error {
	if err := c.churn(); err != nil {
		return fmt.Errorf("figures: forced epoch churn: %w", err)
	}
	return c.Store.Apply(ctx, b, opts...)
}

// cellDir allocates a fresh store directory.
func (c *Config) cellDir(name string) (string, error) {
	dir := filepath.Join(c.ScratchDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// initHalf fills half the dataset (§5.2's mixed-workload initialization),
// in spread (random-ish) or ascending key order.
func initHalf(store kv.Store, keyCount uint64, sorted bool) error {
	n := keyCount / 2
	buf := make([]byte, workload.DefaultKeySize)
	gen := workload.NewUniform(keyCount)
	var fill func(i uint64) []byte
	if sorted {
		fill = func(i uint64) []byte { return workload.PutUint64(buf, i) }
	} else {
		fill = func(i uint64) []byte { return gen.KeyAt(i, buf) }
	}
	if err := harness.Fill(store, fill, n, workload.DefaultValueSize); err != nil {
		return err
	}
	harness.Quiesce(store)
	return nil
}

// systemsThreadSweep is the common engine for Figs 9–13: for each system,
// optionally initialize once, then sweep thread counts measuring with the
// given extractor.
func (c *Config) systemsThreadSweep(
	figName string,
	tbl *harness.Table,
	threads []int,
	freshPerCell bool,
	sorted bool,
	initFill bool,
	opts harness.RunOptions,
	metric func(harness.Result) float64,
) error {
	for si, sys := range AllSystems {
		var store kv.Store
		var err error
		if !freshPerCell {
			dir, derr := c.cellDir(fmt.Sprintf("%s-%d", figName, si))
			if derr != nil {
				return derr
			}
			store, err = openSystem(sys, dir, c.MemBytes, c.limiter())
			if err != nil {
				return err
			}
			if initFill {
				if err := initHalf(store, c.Keys, sorted); err != nil {
					store.Close()
					return err
				}
			}
		}
		for ti, th := range threads {
			if freshPerCell {
				dir, derr := c.cellDir(fmt.Sprintf("%s-%d-%d", figName, si, ti))
				if derr != nil {
					return derr
				}
				store, err = openSystem(sys, dir, c.MemBytes, c.limiter())
				if err != nil {
					return err
				}
				if initFill {
					if err := initHalf(store, c.Keys, sorted); err != nil {
						store.Close()
						return err
					}
				}
			}
			ro := opts
			ro.Threads = th
			ro.Duration = c.Duration
			ro.Keys = c.Keys
			res := harness.Run(store, ro)
			tbl.Set(si, ti, metric(res))
			c.logf("%s %s threads=%d -> %.3f", figName, sys, th, metric(res))
			if freshPerCell {
				store.Close()
			}
		}
		if !freshPerCell {
			store.Close()
		}
	}
	return nil
}

func threadCols(threads []int) []string {
	cols := make([]string, len(threads))
	for i, t := range threads {
		cols[i] = fmt.Sprintf("%d", t)
	}
	return cols
}

func systemRows() []string {
	rows := make([]string, len(AllSystems))
	for i, s := range AllSystems {
		rows[i] = string(s)
	}
	return rows
}

// memorySweepSizes returns the Fig 15/16 x-axis: the paper's
// 128 MB..192 GB scaled by 1/1024.
func (c *Config) memorySweepSizes() []int64 {
	all := []int64{
		128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20,
		8 << 20, 16 << 20, 32 << 20, 64 << 20, 128 << 20, 192 << 20,
	}
	if c.Quick {
		return []int64{128 << 10, 1 << 20, 8 << 20, 64 << 20}
	}
	return all
}

func sizeCols(sizes []int64) []string {
	cols := make([]string, len(sizes))
	for i, s := range sizes {
		// Label with the PAPER's size (scale × 1024) so tables read like
		// the figures.
		cols[i] = harness.ByteSize(s * 1024)
	}
	return cols
}
