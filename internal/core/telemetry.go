package core

import (
	"flodb/internal/obs"
	"flodb/internal/storage"
)

// initObs builds the DB's observability layer, which has no off switch.
// Every statCounters field IS a registered metric — a counter kv.Stats
// reads (the same atomics /metrics exports, so nothing double-counts) or
// a latency histogram (every op pays two clock reads) — and the layers
// that keep their own atomics (wal.Metrics, storage.Metrics, the caches)
// get CounterFunc/GaugeFunc views computed at scrape time. The event log
// is threaded into storage and every WAL segment.
func (db *DB) initObs() {
	reg := obs.NewRegistry()
	db.reg = reg
	db.events = obs.NewEventLog(0)
	s := &db.stats
	s.puts = reg.StripedCounter("flodb_puts_total", "Put operations.")
	s.gets = reg.StripedCounter("flodb_gets_total", "Get operations.")
	s.deletes = reg.StripedCounter("flodb_deletes_total", "Delete operations.")
	s.scans = reg.Counter("flodb_scans_total", "Scan operations.")
	s.batches = reg.Counter("flodb_batches_total", "Atomic batches applied.")
	s.batchOps = reg.Counter("flodb_batch_ops_total", "Operations inside applied batches.")
	s.iterators = reg.Counter("flodb_iterators_total", "Iterators opened.")
	s.snapshots = reg.Counter("flodb_snapshots_total", "Snapshots taken.")
	s.checkpoints = reg.Counter("flodb_checkpoints_total", "Checkpoints taken.")
	s.membufferHits = reg.StripedCounter("flodb_membuffer_hits_total", "Writes absorbed by the Membuffer fast path.")
	s.memtableWrites = reg.StripedCounter("flodb_memtable_writes_total", "Writes that took the direct-to-Memtable path.")
	s.drainedEntries = reg.Counter("flodb_drained_entries_total", "Entries drained Membuffer->Memtable.")
	s.drainBatches = reg.Counter("flodb_drain_batches_total", "Drain multi-insert batches.")
	s.persists = reg.Counter("flodb_persists_total", "Seal->drain->flush persist cycles.")
	s.helpDrains = reg.Counter("flodb_help_drains_total", "Writer visits to the help-drain path.")
	s.syncBarriers = reg.Counter("flodb_sync_barriers_total", "Explicit Sync durability barriers.")
	s.stallNanos = reg.Counter("flodb_write_stall_nanoseconds_total", "Writer time stalled on drains, memory backpressure and L0 backlog.")
	s.inPlaceHits = reg.StripedCounter("flodb_inplace_hits_total", "Membuffer updates that overwrote a resident key in place.")

	// Views over the WAL's own metrics: the acked-vs-durable boundary.
	reg.CounterFunc("flodb_wal_appends_total", "WAL records appended (acked commit index).",
		func() uint64 { return db.walMetrics.Snapshot().Appends })
	reg.CounterFunc("flodb_wal_durable_total", "Highest WAL commit index known crash-durable.",
		func() uint64 { return db.walMetrics.Snapshot().Durable })
	reg.CounterFunc("flodb_wal_syncs_total", "fsyncs issued by the group-commit queue.",
		func() uint64 { return db.walMetrics.Snapshot().Syncs })
	reg.CounterFunc("flodb_wal_sync_requests_total", "Durability requests served by the commit queue.",
		func() uint64 { return db.walMetrics.Snapshot().SyncRequests })

	// Views over the disk component and its caches.
	storeMetric := func(f func(m *storageMetrics) uint64) func() uint64 {
		return func() uint64 {
			if db.store == nil {
				return 0
			}
			m := db.store.Metrics()
			return f(&m)
		}
	}
	reg.CounterFunc("flodb_flushes_total", "Memtable flushes to L0.", storeMetric(func(m *storageMetrics) uint64 { return m.Flushes }))
	reg.CounterFunc("flodb_compactions_total", "Background compactions completed.", storeMetric(func(m *storageMetrics) uint64 { return m.Compactions }))
	reg.CounterFunc("flodb_block_cache_hits_total", "Block cache hits.", storeMetric(func(m *storageMetrics) uint64 { return m.BlockCacheHits }))
	reg.CounterFunc("flodb_block_cache_misses_total", "Block cache misses.", storeMetric(func(m *storageMetrics) uint64 { return m.BlockCacheMisses }))
	reg.CounterFunc("flodb_block_cache_evictions_total", "Block cache evictions.", storeMetric(func(m *storageMetrics) uint64 { return m.BlockCacheEvictions }))
	reg.CounterFunc("flodb_table_cache_hits_total", "Table-handle cache hits.", storeMetric(func(m *storageMetrics) uint64 { return m.TableCacheHits }))
	reg.CounterFunc("flodb_table_cache_misses_total", "Table-handle cache misses.", storeMetric(func(m *storageMetrics) uint64 { return m.TableCacheMisses }))
	reg.CounterFunc("flodb_bloom_checks_total", "Bloom filter checks.", storeMetric(func(m *storageMetrics) uint64 { return m.BloomChecks }))
	reg.CounterFunc("flodb_bloom_negatives_total", "Bloom filter negatives (table reads skipped).", storeMetric(func(m *storageMetrics) uint64 { return m.BloomNegatives }))
	reg.GaugeFunc("flodb_block_cache_bytes", "Bytes resident in the block cache.", func() int64 {
		if db.store == nil {
			return 0
		}
		return db.store.Metrics().BlockCacheBytes
	})

	reg.GaugeFunc("flodb_memtable_bytes", "Approximate live Memtable bytes.", func() int64 {
		if g := db.gen.Load(); g != nil {
			return g.mtb.approxBytes()
		}
		return 0
	})

	opHist := func(op string) *obs.Histogram {
		return reg.Histogram(`flodb_op_latency_seconds{op="`+op+`"}`, "Operation latency by op.")
	}
	s.putLat = opHist("put")
	s.getLat = opHist("get")
	s.deleteLat = opHist("delete")
	s.scanLat = opHist("scan")
	s.batchLat = opHist("batch")
	s.snapLat = opHist("snapshot")
	s.stallLat = reg.Histogram("flodb_write_stall_seconds", "Per-op writer stall time on drains and backpressure.")
}

// storageMetrics aliases the disk component's metrics struct for the
// view closures above.
type storageMetrics = storage.Metrics

// TelemetrySnapshot freezes the metrics registry plus per-type event
// counts — the /metrics source.
func (db *DB) TelemetrySnapshot() obs.Snapshot {
	s := db.reg.Snapshot()
	s.Metrics = append(s.Metrics, obs.EventCountMetrics(db.events)...)
	return s
}

// TelemetryEvents returns up to n recent structured events (n <= 0:
// all retained).
func (db *DB) TelemetryEvents(n int) []obs.Event {
	return db.events.Recent(n)
}
