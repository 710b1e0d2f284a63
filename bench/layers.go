package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"flodb/internal/kv"
	"flodb/internal/wire"
)

// layerProbe takes the counter-based layer metrics of a traced run: the
// store's own counters, the server's, the Go runtime's and the store
// directory's, each as a difference over the measured window.
type layerProbe struct {
	st            *stack
	quiesce       time.Duration
	dir           *dirWatcher
	before, after counterSet
	dirBytes      int64 // store directory size once background work settled
}

type counterSet struct {
	stats    kv.Stats
	stallNs  int64
	mem      runtime.MemStats
	srv      wire.ServerInfo
	sstBytes int64
	walBytes int64
}

func newLayerProbe(st *stack, quiesce time.Duration) *layerProbe {
	return &layerProbe{st: st, quiesce: quiesce, dir: watchDir(st.dir)}
}

func (p *layerProbe) read(c *counterSet) {
	c.stats = p.st.db.Stats()
	for _, m := range p.st.db.TelemetrySnapshot().Metrics {
		if m.Name == "flodb_write_stall_nanoseconds_total" {
			c.stallNs = m.Value
		}
	}
	runtime.ReadMemStats(&c.mem)
	if p.st.srv != nil {
		c.srv = p.st.srv.Info()
	}
	c.sstBytes, c.walBytes = p.dir.written()
}

func (p *layerProbe) begin() {
	p.dir.resetPeak()
	p.read(&p.before)
}

// end closes the window, then lets background work settle so space
// amplification is read from a store at rest.
func (p *layerProbe) end() {
	p.read(&p.after)
	waitQuiesce(p.st.db, p.quiesce)
	p.dirBytes = p.dir.size()
}

func (p *layerProbe) stop() { p.dir.stop() }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (p *layerProbe) metrics(m map[string]float64, r *run, seconds float64) {
	a, b := &p.after.stats, &p.before.stats
	d := func(after, before uint64) float64 { return float64(after - before) }
	puts, gets := d(a.Puts, b.Puts), d(a.Gets, b.Gets)
	scans := d(a.Iterators, b.Iterators)
	mbHits := d(a.MembufferHits, b.MembufferHits)

	m["membuffer.hit_share"] = ratio(mbHits, mbHits+d(a.MemtableWrites, b.MemtableWrites))
	m["core.stall_share"] = ratio(float64(p.after.stallNs-p.before.stallNs), clients*seconds*1e9)
	m["core.scan_restarts_per_scan"] = ratio(d(a.ScanRestarts, b.ScanRestarts), scans)
	m["core.fallback_scans_per_scan"] = ratio(d(a.FallbackScans, b.FallbackScans), scans)
	m["storage.flushes"] = d(a.Flushes, b.Flushes)
	m["storage.compactions"] = d(a.Compactions, b.Compactions)
	m["storage.write_amp"] = ratio(float64(p.after.sstBytes-p.before.sstBytes), puts*userBytesPerKey)
	m["storage.space_amp"] = ratio(float64(p.dirBytes), float64(r.ks.written())*userBytesPerKey)
	m["storage.sst_files_max"] = float64(p.dir.peakTables())
	blockHits, blockMisses := d(a.BlockCacheHits, b.BlockCacheHits), d(a.BlockCacheMisses, b.BlockCacheMisses)
	m["cache.block_hit_rate"] = ratio(blockHits, blockHits+blockMisses)
	m["cache.block_evictions"] = d(a.BlockCacheEvictions, b.BlockCacheEvictions)
	tableHits := d(a.TableCacheHits, b.TableCacheHits)
	m["cache.table_hit_rate"] = ratio(tableHits, tableHits+d(a.TableCacheMisses, b.TableCacheMisses))
	m["sstable.bloom_reject_rate"] = ratio(d(a.BloomMisses, b.BloomMisses), d(a.BloomChecks, b.BloomChecks))
	m["sstable.blocks_read_per_get"] = ratio(blockMisses, gets)
	m["wal.bytes_per_put"] = ratio(float64(p.after.walBytes-p.before.walBytes), puts)
	m["wal.syncs"] = d(a.WALSyncs, b.WALSyncs)
	requests := d(p.after.srv.Requests, p.before.srv.Requests)
	m["server.requests"] = requests
	m["server.bytes_per_op"] = ratio(d(p.after.srv.BytesIn+p.after.srv.BytesOut, p.before.srv.BytesIn+p.before.srv.BytesOut), requests)
	m["runtime.allocs_per_op"] = ratio(d(p.after.mem.Mallocs, p.before.mem.Mallocs), puts+gets+scans)
	m["runtime.gc_pause_ms_total"] = d(p.after.mem.PauseTotalNs, p.before.mem.PauseTotalNs) / 1e6
}

// dirWatcher polls a store directory. The store has no counter for bytes
// flushed, compacted or logged, so they are taken from the files: every
// file is charged the largest size it was ever seen at. Tables are
// written once and then only read, so their final size is always seen;
// a WAL segment grows until it is deleted, so the live ones are polled
// every few milliseconds and the last growth before deletion is missed.
type dirWatcher struct {
	dir  string
	quit chan struct{}
	done chan struct{}

	mu     sync.Mutex
	seen   map[string]int64 // file name -> largest size seen
	logs   []string         // .wal files present at the last listing
	tables int              // .sst files present at the last listing
	peak   int
}

const (
	dirListEvery = 50 * time.Millisecond
	walStatEvery = 5 * time.Millisecond
)

func watchDir(dir string) *dirWatcher {
	w := &dirWatcher{dir: dir, quit: make(chan struct{}), done: make(chan struct{}), seen: map[string]int64{}}
	w.list()
	go w.loop()
	return w
}

func (w *dirWatcher) loop() {
	defer close(w.done)
	tick := time.NewTicker(walStatEvery)
	defer tick.Stop()
	for n := 1; ; n++ {
		select {
		case <-w.quit:
			return
		case <-tick.C:
		}
		if n%int(dirListEvery/walStatEvery) == 0 {
			w.list()
		} else {
			w.statLogs()
		}
	}
}

func (w *dirWatcher) note(name string, size int64) {
	if size > w.seen[name] {
		w.seen[name] = size
	}
}

func (w *dirWatcher) list() {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tables, w.logs = 0, w.logs[:0]
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue // deleted between listing and stat
		}
		w.note(e.Name(), info.Size())
		switch filepath.Ext(e.Name()) {
		case ".sst":
			w.tables++
		case ".wal":
			w.logs = append(w.logs, e.Name())
		}
	}
	w.peak = max(w.peak, w.tables)
}

// statLogs re-reads the size of the live WAL segments only.
func (w *dirWatcher) statLogs() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, name := range w.logs {
		if info, err := os.Stat(filepath.Join(w.dir, name)); err == nil {
			w.note(name, info.Size())
		}
	}
}

// written returns the bytes ever written to tables and to WAL segments.
func (w *dirWatcher) written() (sst, wal int64) {
	w.list()
	w.mu.Lock()
	defer w.mu.Unlock()
	for name, size := range w.seen {
		switch filepath.Ext(name) {
		case ".sst":
			sst += size
		case ".wal":
			wal += size
		}
	}
	return sst, wal
}

// size is the directory's current size in bytes.
func (w *dirWatcher) size() int64 {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

func (w *dirWatcher) resetPeak() {
	w.mu.Lock()
	w.peak = w.tables
	w.mu.Unlock()
}

func (w *dirWatcher) peakTables() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peak
}

func (w *dirWatcher) stop() {
	close(w.quit)
	<-w.done
}
