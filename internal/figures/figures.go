// Package figures regenerates the figures of the paper's evaluation (§5)
// that no workload of the benchmark in bench/ answers: the five-system
// comparisons of Figs 9–16 (the paper's systems; FloDB served over the
// wire would measure loopback there) and the Membuffer ablation of Fig 17,
// plus apibench and netbench, which also sweep FloDB/net, and three
// parameter ablations. ByName lists them.
// Each produces a harness.Table whose rows are the paper's series and
// whose columns are the paper's x-axis, at a configurable scale. The
// structure microbenchmarks of Figs 5, 7 and 8 are bench/'s per-workload
// replay metrics (membuffer.*, skiplist.*); the question of Figs 3 and 4,
// whether a bigger skiplist memtable slows a baseline's writes, is Fig 15's
// RocksDB row.
//
// Scaling: the paper's machine is a 20-core Xeon with
// 256 GB RAM and a 300 GB dataset; sizes here default to 1/1024 of the
// paper's (128 MB→128 KB … 192 GB→192 MB, 300 GB→~300 MB) so every ratio
// that drives the results — memory:dataset, membuffer:memtable, hot-set:
// memory — is preserved while cells run in seconds. Absolute Mops/s are
// not comparable to the paper's hardware; the SHAPES (who wins, by what
// factor, where the crossovers sit) are what the figures reproduce, and
// each figure's doc comment states the shape the paper reports.
package figures

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"flodb/internal/baseline"
	"flodb/internal/core"
	"flodb/internal/harness"
	"flodb/internal/kv"
	"flodb/internal/storage"
	"flodb/internal/workload"
)

// ByName maps each figure name flobench accepts to its driver.
var ByName = map[string]func(Config) (*harness.Table, error){
	"fig9":  Fig9,
	"fig10": Fig10,
	"fig11": Fig11,
	"fig12": Fig12,
	"fig13": Fig13,
	"fig14": Fig14,
	"fig15": Fig15,
	"fig16": Fig16,
	"fig17": Fig17,
	// Contract surface beyond the paper: atomic batches + streaming
	// iterators across the six systems.
	"apibench": APIBench,
	// Service tier: throughput and latency through flodbd's wire
	// protocol vs client connection-pool size.
	"netbench": NetBench,
	// Ablations beyond the paper: sweeps of the parameters it fixes
	// empirically (§4.1, §5.1).
	"ablate-split": AblateSplit,
	"ablate-drain": AblateDrainThreads,
	"ablate-lbits": AblatePartitionBits,
}

// System identifies one of the evaluated stores.
type System string

// The five systems of §5.1, plus the networked engine (a FloDB instance
// behind an in-process flodbd server, every operation paying a loopback
// round trip through internal/wire).
const (
	SysFloDB System = "FloDB"
	SysNet   System = "FloDB/net"
	SysRocks System = "RocksDB"
	SysCLSM  System = "RocksDB/cLSM"
	SysHyper System = "HyperLevelDB"
	SysLevel System = "LevelDB"
)

// AllSystems lists the systems in legend order: the paper's five plus
// the networked sixth, so every conformance suite, apibench and netbench
// sweep it too.
var AllSystems = []System{SysFloDB, SysNet, SysRocks, SysCLSM, SysHyper, SysLevel}

// figureSystems are the rows of Figs 9–16: the paper's five. FloDB/net
// would measure loopback there, not the memory component.
var figureSystems = []System{SysFloDB, SysRocks, SysCLSM, SysHyper, SysLevel}

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

// wrapStoreForTest, when set, wraps every store openSystemMode builds.
// The epoch-change conformance rerun sets it to force memory-component
// epoch changes into the suites' workloads.
var wrapStoreForTest func(kv.Store) kv.Store

// openSystem builds one of the six stores. Benchmarks run with default
// durability None, like the paper's db_bench-style loaders: a write that
// names no class appends no log record. Every store still creates,
// replays and retires its log segments; cells that measure the durable
// write path use openSystemDurable.
func openSystem(sys System, dir string, memBytes int64) (kv.Store, error) {
	return openSystemMode(sys, dir, memBytes, kv.DurabilityNone)
}

// openSystemDurable builds one of the six stores with Buffered default
// durability (every write logged, no fsync) — the configuration the
// durable-write apibench column and the durability conformance suite
// measure.
func openSystemDurable(sys System, dir string, memBytes int64) (kv.Store, error) {
	return openSystemMode(sys, dir, memBytes, kv.DurabilityBuffered)
}

func openSystemMode(sys System, dir string, memBytes int64, d kv.Durability) (kv.Store, error) {
	s, err := openStore(sys, dir, memBytes, d)
	if err != nil || wrapStoreForTest == nil {
		return s, err
	}
	return wrapStoreForTest(s), nil
}

func openStore(sys System, dir string, memBytes int64, d kv.Durability) (kv.Store, error) {
	switch sys {
	case SysFloDB:
		return core.Open(core.Config{
			Dir:         dir,
			MemoryBytes: memBytes,
			Durability:  d,
			Storage:     storageOpts(memBytes),
		})
	case SysNet:
		return openNet(dir, memBytes, d)
	}
	cfg := baseline.Config{
		Dir: dir, MemBytes: memBytes, Durability: d,
		Storage: storageOpts(memBytes),
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
	for si, sys := range figureSystems {
		var store kv.Store
		var err error
		if !freshPerCell {
			dir, derr := c.cellDir(fmt.Sprintf("%s-%d", figName, si))
			if derr != nil {
				return derr
			}
			store, err = openSystem(sys, dir, c.MemBytes)
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
				store, err = openSystem(sys, dir, c.MemBytes)
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
			res, err := harness.Run(store, ro)
			if freshPerCell || err != nil {
				store.Close()
			}
			if err != nil {
				return fmt.Errorf("%s %s threads=%d: %w", figName, sys, th, err)
			}
			tbl.Set(si, ti, metric(res))
			c.logf("%s %s threads=%d -> %.3f", figName, sys, th, metric(res))
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

func systemRows(systems []System) []string {
	rows := make([]string, len(systems))
	for i, s := range systems {
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
